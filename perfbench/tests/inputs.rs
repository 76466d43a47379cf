//! The benchmark's inputs are a function of its seed, and its metric
//! names are the ones `BENCHMARK.json` declares.

use clean_perfbench::catalog;
use clean_perfbench::offline::{generate, TraceSet};
use clean_perfbench::serve_mix::{corpus, op_sequence, Op};
use clean_trace::digest_file;
use std::path::PathBuf;

/// Accesses per thread of the test traces: small, so the tests are quick.
const SMALL: u64 = 300;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

fn trace_set(name: &str, seed: u64) -> (TraceSet, Vec<Vec<u8>>) {
    let dir = scratch(name);
    let set = generate(&dir, seed, SMALL).expect("generate the trace set");
    let bytes = set
        .files
        .iter()
        .map(|f| std::fs::read(&f.path).expect("read a trace file"))
        .collect();
    (set, bytes)
}

#[test]
fn same_seed_gives_the_same_trace_files_digests_and_references() {
    let (a, a_bytes) = trace_set("same-a", 7);
    let (b, b_bytes) = trace_set("same-b", 7);
    assert_eq!(a.files.len(), 24);
    assert_eq!(a_bytes, b_bytes);
    assert!(a.bad_references.is_empty(), "{:?}", a.bad_references);
    for (fa, fb) in a.files.iter().zip(&b.files) {
        assert_eq!(fa.expected, fb.expected, "{}", fa.profile);
        assert_eq!(
            digest_file(&fa.path).unwrap(),
            digest_file(&fb.path).unwrap()
        );
    }
    let seeded = a.files.iter().filter(|f| !f.expected.is_empty()).count();
    assert_eq!(seeded, 8, "every third file carries its seeded pair");
    for name in ["same-a", "same-b"] {
        let _ = std::fs::remove_dir_all(scratch(name));
    }
}

#[test]
fn a_different_seed_gives_different_digests() {
    let (a, _) = trace_set("diff-a", 7);
    let (b, _) = trace_set("diff-b", 8);
    for (fa, fb) in a.files.iter().zip(&b.files) {
        assert_ne!(
            digest_file(&fa.path).unwrap(),
            digest_file(&fb.path).unwrap()
        );
    }
    let ca = corpus(&scratch("diff-corpus-a"), 7, &op_sequence(7, 40), 2, 2).unwrap();
    let cb = corpus(&scratch("diff-corpus-b"), 8, &op_sequence(8, 40), 2, 2).unwrap();
    for (ta, tb) in ca.hot.iter().zip(&cb.hot) {
        assert_ne!(ta.digest, tb.digest);
    }
    for (ta, tb) in ca.cold.iter().zip(&cb.cold) {
        assert_ne!(ta.digest, tb.digest);
    }
    for name in ["diff-a", "diff-b", "diff-corpus-a", "diff-corpus-b"] {
        let _ = std::fs::remove_dir_all(scratch(name));
    }
}

#[test]
fn same_seed_gives_the_same_serve_corpus() {
    let ops = op_sequence(3, 200);
    assert_eq!(ops, op_sequence(3, 200));
    let cold = ops.iter().filter(|o| matches!(o, Op::Cold(_))).count();
    assert!(cold > 0 && cold < ops.len());
    let a = corpus(&scratch("corpus-a"), 3, &ops, 2, 2).unwrap();
    assert_eq!(a.cold.len(), cold);
    // Generation spread over a different number of threads and shards
    // must not change a byte or a verdict.
    let b = corpus(&scratch("corpus-b"), 3, &ops, 1, 1).unwrap();
    assert_eq!(a.hot, b.hot);
    for (ta, tb) in a.cold.iter().zip(&b.cold) {
        assert_eq!(
            (ta.bytes, ta.digest, &ta.truth),
            (tb.bytes, tb.digest, &tb.truth)
        );
        assert_eq!(
            std::fs::read(&ta.path).unwrap(),
            std::fs::read(&tb.path).unwrap()
        );
    }
    let digests: std::collections::HashSet<_> = a
        .hot
        .iter()
        .map(|t| t.digest)
        .chain(a.cold.iter().map(|t| t.digest))
        .collect();
    assert_eq!(
        digests.len(),
        a.hot.len() + a.cold.len(),
        "every trace is distinct"
    );
    for name in ["corpus-a", "corpus-b"] {
        let _ = std::fs::remove_dir_all(scratch(name));
    }
}

/// The names between `"section": [` and the closing `]` of
/// `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let names = |defs: Vec<catalog::Def>| -> Vec<(String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), names(catalog::end_to_end()));
    assert_eq!(declared("per_layer"), names(catalog::per_layer()));
}
