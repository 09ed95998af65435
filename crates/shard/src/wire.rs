//! The classify request body, decoded and encoded in one place.
//!
//! `POST /v1/classify` takes `{"node": N}` or `{"nodes": [N, ..]}` with
//! an optional string `"tenant"`. Shard workers, single servers and the
//! router all accept it, and the router re-encodes one sub-batch per
//! owning shard, so its shape lives here once. [`ClassifyRequest::decode`]
//! checks the shape and nothing else: each caller range-checks the node
//! ids against its own id space (a worker's dataset or owned range, the
//! router's shard map).

use serde_json::{json, Value};

/// Parse a request body as JSON. The error is a client error (`400`);
/// every JSON route (classify here, the label exchange on workers and
/// router) reports it in these words.
pub fn json_body(body: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|e| format!("invalid JSON body: {e}"))
}

/// A decoded `POST /v1/classify` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyRequest {
    /// Node ids in request order, as the client sent them (global ids
    /// on a sharded cluster).
    pub nodes: Vec<u64>,
    /// The tenant the body names, if any.
    pub tenant: Option<String>,
}

impl ClassifyRequest {
    /// Decode a request body. Errors are client errors (`400`) and say
    /// which key is wrong.
    pub fn decode(body: &str) -> Result<ClassifyRequest, String> {
        let body = json_body(body)?;
        let nodes = match (body.get("node"), body.get("nodes")) {
            (Some(n), None) => {
                vec![n.as_u64().ok_or("'node' must be a non-negative integer")?]
            }
            (None, Some(list)) => {
                let list = list.as_array().ok_or("'nodes' must be an array")?;
                if list.is_empty() {
                    return Err("'nodes' must not be empty".into());
                }
                list.iter()
                    .map(Value::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or("'nodes' entries must be non-negative integers")?
            }
            _ => return Err("body must have exactly one of 'node' or 'nodes'".into()),
        };
        let tenant = match body.get("tenant") {
            None => None,
            Some(t) => Some(t.as_str().ok_or("'tenant' must be a string")?.to_string()),
        };
        Ok(ClassifyRequest { nodes, tenant })
    }

    /// Encode as a `{"nodes": [..]}` body (plus `"tenant"` when set) that
    /// [`ClassifyRequest::decode`] reads back unchanged.
    pub fn encode(&self) -> String {
        let mut body = json!({ "nodes": self.nodes });
        if let (Some(t), Value::Object(o)) = (&self.tenant, &mut body) {
            o.insert("tenant".into(), Value::String(t.clone()));
        }
        serde_json::to_string(&body).expect("classify body serialization")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_and_batch_bodies_decode() {
        let one = ClassifyRequest::decode(r#"{"node": 3}"#).unwrap();
        assert_eq!(one, ClassifyRequest { nodes: vec![3], tenant: None });
        let many = ClassifyRequest::decode(r#"{"nodes": [4, 1], "tenant": "acme"}"#).unwrap();
        assert_eq!(many.nodes, vec![4, 1]);
        assert_eq!(many.tenant.as_deref(), Some("acme"));
    }

    #[test]
    fn encode_round_trips_through_decode() {
        for req in [
            ClassifyRequest { nodes: vec![7], tenant: None },
            ClassifyRequest {
                nodes: vec![9, 0, 2],
                tenant: Some("a \"quoted\" tenant".into()),
            },
        ] {
            assert_eq!(ClassifyRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_bodies_name_the_offending_key() {
        for (body, error) in [
            (r#"{}"#, "body must have exactly one of 'node' or 'nodes'"),
            (r#"{"node": 1, "nodes": [1]}"#, "body must have exactly one of 'node' or 'nodes'"),
            (r#"{"nodes": []}"#, "'nodes' must not be empty"),
            (r#"{"nodes": 3}"#, "'nodes' must be an array"),
            (r#"{"nodes": [1, -2]}"#, "'nodes' entries must be non-negative integers"),
            (r#"{"nodes": [1.5]}"#, "'nodes' entries must be non-negative integers"),
            (r#"{"node": "4"}"#, "'node' must be a non-negative integer"),
            (r#"{"nodes": [1], "tenant": 5}"#, "'tenant' must be a string"),
        ] {
            assert_eq!(ClassifyRequest::decode(body).unwrap_err(), error, "body: {body}");
        }
        let err = ClassifyRequest::decode("{not json").unwrap_err();
        assert!(err.starts_with("invalid JSON body: "), "got: {err}");
    }
}
