//! Tiny-size smoke test: every workload runs a few requests in both
//! modes and emits every named metric with its unit, and the
//! correctness checks trip on a corrupted response byte.

use certbench::workload::{Sizes, Workload};
use certbench::{run, Options, Report, END_TO_END};
use std::path::PathBuf;

fn opts(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        sizes: Sizes::tiny(),
        corrupt: None,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("certbench-smoke"),
    }
}

fn names(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`, read with a
/// few string scans (the file is flat and machine-written).
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("{list} listed"));
    let end = text[start..].find(']').expect("list closes") + start;
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_string()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers = declared("per_layer");
    for w in Workload::ALL {
        let plain = run(&opts(w, false)).expect("untraced run");
        assert!(plain.correct, "{}: {:?}", w.name(), plain.notes);
        assert!(plain.attempted > 0 && plain.failed == 0);
        assert_eq!(names(&plain), e2e, "{}", w.name());
        for m in &plain.metrics.0 {
            assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
        }
        let traced = run(&opts(w, true)).expect("traced run");
        assert!(traced.correct, "{}: {:?}", w.name(), traced.notes);
        assert_eq!(names(&traced), layers, "{}", w.name());
        for stem in [
            "planar.lr",
            "core.verify",
            "store.get",
            "tiered.lookup_cold",
        ] {
            let v = traced.metrics.get(&format!("{stem}_us")).unwrap();
            assert!(v > 0.0, "{} {stem} never measured", w.name());
        }
    }
}

#[test]
fn the_checks_trip_on_a_corrupted_response_byte() {
    // hit-large: by request 20 every key has a first answer, so a
    // flipped byte breaks either the decode or the byte identity
    let mut o = opts(Workload::HitLarge, false);
    o.corrupt = Some(20);
    let report = run(&o).expect("run completes");
    assert!(!report.correct);
    assert_eq!(report.failed, 1, "{:?}", report.notes);
    assert!(report.notes.iter().any(|n| n.contains("request 20")));
}

#[test]
fn the_seed_alone_fixes_the_inputs() {
    use certbench::workload::{hit_large_items, miss_item, mixed_item};
    let sizes = Sizes::tiny();
    let enc = |items: Vec<certbench::workload::Item>| -> Vec<Vec<u8>> {
        items.iter().map(|i| i.req.encode()).collect()
    };
    assert_eq!(
        enc(hit_large_items(3, &sizes)),
        enc(hit_large_items(3, &sizes))
    );
    assert_ne!(
        enc(hit_large_items(3, &sizes)),
        enc(hit_large_items(4, &sizes))
    );
    let a = miss_item(3, 0, 5, &sizes).req.encode();
    assert_eq!(a, miss_item(3, 0, 5, &sizes).req.encode());
    assert_ne!(a, miss_item(3, 1, 5, &sizes).req.encode());
    let b = mixed_item(3, 9, &sizes).req.encode();
    assert_eq!(b, mixed_item(3, 9, &sizes).req.encode());
    assert_ne!(b, mixed_item(4, 9, &sizes).req.encode());
}
