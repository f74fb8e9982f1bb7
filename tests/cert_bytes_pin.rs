//! Certificate byte pin: the exact bytes every registered scheme's
//! prover hands out.
//!
//! Certified assignments persist in segment stores across restarts and
//! versions, and the service answers a repeated request with the stored
//! bytes, so a prover or bit-codec change that alters a single
//! certificate bit is a format change. For every scheme of
//! `SchemeRegistry::standard()` this proves a few seeded instances of its
//! class and compares the FNV-128 hash of `Assignment::encode_into`
//! against constants recorded before the byte-at-a-time bit codec
//! replaced the bit-at-a-time one.

use dpc::graph::canon::hash_bytes;
use dpc::graph::{generators, Graph};
use dpc::lowerbounds::blocks::path_of_blocks;
use dpc::service::SchemeRegistry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A seeded yes-instance of the scheme's class.
fn instance(scheme: &str, seed: u64) -> Graph {
    let s = seed as u32;
    match scheme {
        "planarity" => match seed {
            1 => generators::stacked_triangulation(90, seed),
            2 => generators::shuffle_ids(&generators::random_planar(70, 0.5, seed), seed),
            _ => generators::grid(6, 7 + s),
        },
        "universal" => generators::random_planar(18 + s, 0.4, seed),
        "bipartite" => match seed {
            1 => generators::random_tree(50, seed),
            _ => generators::shuffle_ids(&generators::grid(5, 4 + s), seed),
        },
        "tree" => generators::shuffle_ids(&generators::random_tree(40 + s, seed), seed),
        "spanning-tree" => generators::gnm_connected(30, 60 + s, seed),
        "path" => generators::shuffle_ids(&generators::path(20 + s), seed),
        "path-outerplanar" => generators::random_path_outerplanar(40 + s, 12, seed),
        "non-planarity" => generators::planted_kuratowski(30, seed.is_multiple_of(2), 1, seed),
        "mod-counter" => {
            let mut perm: Vec<usize> = (1..=2 + seed as usize).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(seed));
            path_of_blocks(4, &perm).graph
        }
        other => panic!("no seeded instance wired for scheme {other}"),
    }
}

/// `(scheme, seed, hash of the encoded assignment)`.
const PINS: &[(&str, u64, &str)] = &[
    ("planarity", 1, "8a97bf734e1e57baa1ca365054404594"),
    ("planarity", 2, "368017b2d50e37a913058dfbf6641c9e"),
    ("planarity", 3, "ea40ca675e92460c096a20428b6a8404"),
    ("bipartite", 1, "1cf8630f1979fc59f875cab8a8af1e1d"),
    ("bipartite", 2, "983e673aae5786845bbb1606902ae6c9"),
    ("bipartite", 3, "340a1bc135553ad84643f4ece9a8019b"),
    ("tree", 1, "f0eddb86d78fd72191deb44fdee484aa"),
    ("tree", 2, "c4df0bf5025d8e6a24af0ee7a797c9de"),
    ("tree", 3, "4aff6ff78d0faff1f3b82c57bd2131d3"),
    ("spanning-tree", 1, "9f0d6cd7da1d3bf977f44300caf891bb"),
    ("spanning-tree", 2, "b25a5caa1c9c7c706e7ee669141491e1"),
    ("spanning-tree", 3, "3e0ca9d9eaca199071b34ca65c576194"),
    ("path", 1, "b54d552199ebcaaf730a5d1cc0873b1c"),
    ("path", 2, "799ee72f73bea7952555e1a4d23b11df"),
    ("path", 3, "9ce0356854a2fed41d9ede6be0b92b2b"),
    ("path-outerplanar", 1, "c5d3f0726719d9f0d02ffe103c8607e4"),
    ("path-outerplanar", 2, "6fd9f5816d540709566b27ef36af1fe7"),
    ("path-outerplanar", 3, "66a7de43fc0f692a342d5d1a08d1ffa6"),
    ("non-planarity", 1, "e501dde346ae73037a758fb003d99570"),
    ("non-planarity", 2, "271768a4d2eedb2d07802a44bb8a2da7"),
    ("non-planarity", 3, "949d1ddaa7398618588769f28ea0ca9d"),
    ("universal", 1, "4cd78afe230a70d0085a88176758030e"),
    ("universal", 2, "90f6f568cab3f302072d35c6a2f0f95b"),
    ("universal", 3, "0fe04a09e86727f1adb6ae4bfdf3c800"),
    ("mod-counter", 1, "f000c01d8301b987058b732aeb1da2ba"),
    ("mod-counter", 2, "33231e5c6d1f8935b067085ae7b1ac32"),
    ("mod-counter", 3, "94e1d3ebb10e0afc7fc8b3844f1fcc0d"),
];

#[test]
fn every_scheme_hands_out_the_pinned_certificate_bytes() {
    let registry = SchemeRegistry::standard();
    let mut actual = Vec::new();
    for entry in registry.entries() {
        for seed in 1..=3u64 {
            let g = instance(entry.name, seed);
            let assignment = entry
                .scheme()
                .prove(&g)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", entry.name));
            let mut bytes = Vec::new();
            assignment.encode_into(&mut bytes);
            actual.push((entry.name, seed, hash_bytes(&bytes).to_string()));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, hash)| format!("    ({name:?}, {seed}, {hash:?}),\n"))
        .collect();
    let pinned: Vec<(&str, u64, String)> = PINS
        .iter()
        .map(|&(name, seed, hash)| (name, seed, hash.to_string()))
        .collect();
    assert_eq!(
        actual, pinned,
        "certificate bytes changed; the current table is:\n{table}"
    );
}
