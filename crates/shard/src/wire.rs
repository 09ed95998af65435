//! Every JSON body that crosses a process boundary, encoded and decoded
//! in one place: [`ClassifyRequest`] and [`ClassifyResponse`] on
//! `POST /v1/classify` (single servers and shard workers answer it, the
//! router splits a request per owning shard and merges the replies),
//! and [`LabelBatch`] on both legs of the cross-shard pseudo-label
//! exchange, `POST /v1/labels`. Decoders check shape only; each caller
//! range-checks ids against its own id space (a worker's dataset or
//! owned range, the router's shard map). Encoders write compact JSON
//! with sorted keys and leave out empty optional fields.

use serde_json::Value;

/// Parse a request body as JSON. The error is a client error (`400`);
/// every JSON route (classify here, the label exchange on workers and
/// router) reports it in these words.
pub fn json_body(body: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|e| format!("invalid JSON body: {e}"))
}

/// An object built from `fields`, leaving out the `None`s.
fn object<const N: usize>(fields: [(&str, Option<Value>); N]) -> Value {
    Value::Object(fields.into_iter().filter_map(|(k, v)| Some((k.to_string(), v?))).collect())
}

fn to_text(body: &Value) -> String {
    serde_json::to_string(body).expect("wire body serialization")
}

/// `body[key]` read by `read`: `None` when absent, `error` when present
/// but unreadable.
fn optional<T>(
    body: &Value,
    key: &str,
    read: impl Fn(&Value) -> Option<T>,
    error: &str,
) -> Result<Option<T>, String> {
    body.get(key).map(|v| read(v).ok_or_else(|| error.to_string())).transpose()
}

fn string(v: &Value) -> Option<String> {
    v.as_str().map(str::to_string)
}

fn shard_id(v: &Value) -> Option<u32> {
    v.as_u64().and_then(|s| u32::try_from(s).ok())
}

const SHARDS_ERROR: &str = "'shards' must be an array of shard ids";

fn shard_ids(v: &Value) -> Option<Vec<u32>> {
    v.as_array()?.iter().map(shard_id).collect()
}

/// A decoded `POST /v1/classify` body: `{"node": N}` or
/// `{"nodes": [N, ..]}`, with an optional string `"tenant"`.
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
        let tenant = optional(&body, "tenant", string, "'tenant' must be a string")?;
        Ok(ClassifyRequest { nodes, tenant })
    }

    /// Encode as a `{"nodes": [..]}` body (plus `"tenant"` when set) that
    /// [`ClassifyRequest::decode`] reads back unchanged.
    pub fn encode(&self) -> String {
        to_text(&object([
            ("nodes", Some(self.nodes.clone().into())),
            ("tenant", self.tenant.clone().map(Value::String)),
        ]))
    }
}

/// One per-node record of a [`ClassifyResponse`]: the journal line
/// `mqo_core::journal::record_to_json` writes, opaque here except for
/// its `"node"` key, which the router joins on.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecord {
    /// The record's node id (global on a sharded cluster).
    pub node: u64,
    /// The whole journal line, `"node"` included.
    pub line: Value,
}

/// A `POST /v1/classify` `200` body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassifyResponse {
    /// The tenant the batch was billed to.
    pub tenant: String,
    /// One record per requested node, in request order.
    pub records: Vec<NodeRecord>,
    /// How many records were replayed from a journal (billed zero).
    pub replayed: u64,
    /// Prompt tokens billed for the batch.
    pub billed_tokens: u64,
    /// Whether brown-out served the batch with pruned prompts.
    pub degraded: bool,
    /// The request's trace id; omitted when empty.
    pub trace: String,
    /// The shards a router consulted, in first-appearance order;
    /// omitted when empty (single servers and workers).
    pub shards: Vec<u32>,
}

impl ClassifyResponse {
    /// Encode. Consumes the response so each record line moves into the
    /// body instead of being copied.
    pub fn encode(self) -> String {
        to_text(&object([
            ("tenant", Some(self.tenant.into())),
            ("records", Some(self.records.into_iter().map(|r| r.line).collect())),
            ("replayed", Some(self.replayed.into())),
            ("billed_tokens", Some(self.billed_tokens.into())),
            ("degraded", Some(self.degraded.into())),
            ("trace", (!self.trace.is_empty()).then(|| self.trace.into())),
            ("shards", (!self.shards.is_empty()).then(|| self.shards.into())),
        ]))
    }

    /// Decode a `200` body, moving each record line out of the parsed
    /// document. Errors name the malformed key.
    pub fn decode(body: &str) -> Result<ClassifyResponse, String> {
        let mut body = json_body(body)?;
        let records = match &mut body {
            Value::Object(o) => o.remove("records"),
            _ => None,
        };
        let Some(Value::Array(lines)) = records else {
            return Err("response must have a 'records' array".into());
        };
        let count = |key: &str| {
            body.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("'{key}' must be a non-negative integer"))
        };
        Ok(ClassifyResponse {
            records: lines
                .into_iter()
                .map(|line| {
                    let node = line.get("node").and_then(Value::as_u64);
                    Ok(NodeRecord {
                        node: node.ok_or("each record needs an integer 'node'")?,
                        line,
                    })
                })
                .collect::<Result<_, String>>()?,
            replayed: count("replayed")?,
            billed_tokens: count("billed_tokens")?,
            degraded: body
                .get("degraded")
                .and_then(Value::as_bool)
                .ok_or("'degraded' must be a boolean")?,
            tenant: body.get("tenant").and_then(string).ok_or("'tenant' must be a string")?,
            trace: optional(&body, "trace", string, "'trace' must be a string")?
                .unwrap_or_default(),
            shards: optional(&body, "shards", shard_ids, SHARDS_ERROR)?.unwrap_or_default(),
        })
    }
}

/// One pseudo-label of a [`LabelBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Global node id.
    pub node: u64,
    /// Predicted class.
    pub label: u16,
    /// Shards owning at least one neighbor of the node (never the
    /// pushing shard), which the router forwards the label to. Empty,
    /// and omitted on the wire, in the router's forwards.
    pub shards: Vec<u32>,
}

/// A `POST /v1/labels` body. A worker pushes
/// `{"from_shard": I, "labels": [{"node", "label", "shards"}, ..]}` to
/// the router; the router forwards `{"labels": [{"node", "label"}, ..]}`
/// to each target worker.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelBatch {
    /// The pushing worker's shard id; `None` on router forwards.
    pub from_shard: Option<u32>,
    /// The labels, in push order.
    pub labels: Vec<Label>,
}

impl LabelBatch {
    /// Decode either label body. Errors are client errors (`400`).
    pub fn decode(body: &str) -> Result<LabelBatch, String> {
        let body = json_body(body)?;
        let from_shard =
            optional(&body, "from_shard", shard_id, "'from_shard' must be a shard id")?;
        let list = body
            .get("labels")
            .and_then(Value::as_array)
            .ok_or("body must have a 'labels' array")?;
        let mut labels = Vec::with_capacity(list.len());
        for entry in list {
            let (Some(node), Some(label)) = (
                entry.get("node").and_then(Value::as_u64),
                entry.get("label").and_then(Value::as_u64),
            ) else {
                return Err("label entries need integer 'node' and 'label'".into());
            };
            let label = u16::try_from(label)
                .map_err(|_| format!("label {label} out of class range"))?;
            let shards =
                optional(entry, "shards", shard_ids, SHARDS_ERROR)?.unwrap_or_default();
            labels.push(Label { node, label, shards });
        }
        Ok(LabelBatch { from_shard, labels })
    }

    /// Encode either label body.
    pub fn encode(&self) -> String {
        let labels = self.labels.iter().map(|l| {
            let shards = (!l.shards.is_empty()).then(|| l.shards.clone().into());
            object([
                ("node", Some(l.node.into())),
                ("label", Some(l.label.into())),
                ("shards", shards),
            ])
        });
        to_text(&object([
            ("from_shard", self.from_shard.map(Value::from)),
            ("labels", Some(labels.collect())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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

    fn record(node: u64) -> NodeRecord {
        NodeRecord {
            node,
            line: json!({"kind": "record", "node": node, "predicted": 2, "correct": true}),
        }
    }

    #[test]
    fn classify_response_round_trips_and_omits_empty_trace_and_shards() {
        let full = ClassifyResponse {
            tenant: "a \"quoted\" tenant".into(),
            records: vec![record(5), record(1)],
            replayed: 1,
            billed_tokens: 42,
            degraded: true,
            trace: "00000000000000ab".into(),
            shards: vec![1, 0],
        };
        assert_eq!(ClassifyResponse::decode(&full.clone().encode()).unwrap(), full);

        let bare = ClassifyResponse {
            tenant: "t".into(),
            records: vec![record(3)],
            ..Default::default()
        };
        let text = bare.clone().encode();
        assert_eq!(
            text,
            r#"{"billed_tokens":0,"degraded":false,"records":[{"correct":true,"kind":"record","node":3,"predicted":2}],"replayed":0,"tenant":"t"}"#
        );
        assert_eq!(ClassifyResponse::decode(&text).unwrap(), bare);
    }

    #[test]
    fn malformed_classify_responses_name_the_offending_key() {
        for (body, error) in [
            (r#"[1]"#, "response must have a 'records' array"),
            (r#"{"tenant":"t"}"#, "response must have a 'records' array"),
            (r#"{"records":[{"predicted":1}]}"#, "each record needs an integer 'node'"),
            (
                r#"{"records":[],"replayed":false,"billed_tokens":0}"#,
                "'replayed' must be a non-negative integer",
            ),
            (
                r#"{"records":[],"replayed":0}"#,
                "'billed_tokens' must be a non-negative integer",
            ),
            (
                r#"{"records":[],"replayed":0,"billed_tokens":0,"degraded":0}"#,
                "'degraded' must be a boolean",
            ),
            (
                r#"{"records":[],"replayed":0,"billed_tokens":0,"degraded":false}"#,
                "'tenant' must be a string",
            ),
        ] {
            assert_eq!(ClassifyResponse::decode(body).unwrap_err(), error, "body: {body}");
        }
    }

    #[test]
    fn label_batches_round_trip_in_both_directions() {
        let push = LabelBatch {
            from_shard: Some(2),
            labels: vec![Label { node: 40, label: 6, shards: vec![0, 1] }],
        };
        assert_eq!(
            push.encode(),
            r#"{"from_shard":2,"labels":[{"label":6,"node":40,"shards":[0,1]}]}"#
        );
        assert_eq!(LabelBatch::decode(&push.encode()).unwrap(), push);

        let forward = LabelBatch {
            from_shard: None,
            labels: vec![Label { node: 7, label: 1, shards: vec![] }],
        };
        assert_eq!(forward.encode(), r#"{"labels":[{"label":1,"node":7}]}"#);
        assert_eq!(LabelBatch::decode(&forward.encode()).unwrap(), forward);
    }

    #[test]
    fn malformed_label_batches_name_the_offending_key() {
        for (body, error) in [
            (r#"{}"#, "body must have a 'labels' array"),
            (r#"{"labels":[{"node":1}]}"#, "label entries need integer 'node' and 'label'"),
            (r#"{"labels":[{"node":1,"label":70000}]}"#, "label 70000 out of class range"),
            (
                r#"{"labels":[{"node":1,"label":2,"shards":[-1]}]}"#,
                "'shards' must be an array of shard ids",
            ),
            (r#"{"from_shard":"a","labels":[]}"#, "'from_shard' must be a shard id"),
        ] {
            assert_eq!(LabelBatch::decode(body).unwrap_err(), error, "body: {body}");
        }
    }
}
