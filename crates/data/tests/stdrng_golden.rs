//! Golden values for the vendored `StdRng` stream.
//!
//! Every seeded result in the workspace — dataset generation, labeled
//! splits, per-node neighbor sampling, the committed tables in
//! `results/` — is a function of this stream. Pinning its first outputs
//! for a few seeds makes any change to the generator (a new algorithm,
//! a different seeding expansion) fail here by name instead of silently
//! shifting every downstream number.
//!
//! The test lives in a workspace member because `vendor/` is excluded
//! from the workspace, so tests inside `vendor/rand` never run with
//! `cargo test`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// `(seed, first eight next_u64 outputs)`.
const GOLDEN: [(u64, [u64; 8]); 3] = [
    (
        0,
        [
            0x53175d61490b23df,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
            0x7eca04ebaf4a5eea,
            0x0543c37757f08d9a,
            0xdb7490c75ab5026e,
            0xd87343e6464bc959,
        ],
    ),
    (
        42,
        [
            0xd0764d4f4476689f,
            0x519e4174576f3791,
            0xfbe07cfb0c24ed8c,
            0xb37d9f600cd835b8,
            0xcb231c3874846a73,
            0x968d9f004e50de7d,
            0x201718ff221a3556,
            0x9ae94e070ed8cb46,
        ],
    ),
    (
        20250704,
        [
            0x0ca198387d4adbf9,
            0x4363113798d4c616,
            0x5eeac582ce83d845,
            0x189dfbeaa93d0f7b,
            0x766e1fff7bb8a9d9,
            0x562f791ed87e5797,
            0xe1fb14c5a5675a3a,
            0xb2cd2f9f7b11649f,
        ],
    ),
];

#[test]
fn std_rng_stream_matches_golden_values() {
    for (seed, expected) in GOLDEN {
        let mut rng = StdRng::seed_from_u64(seed);
        let got: Vec<u64> = (0..expected.len()).map(|_| rng.next_u64()).collect();
        assert_eq!(got, expected, "StdRng stream changed for seed {seed}");
    }
}
