//! Tier-1 gate: the whole-workspace static analysis must hold.
//!
//! This runs the same engine as `cargo run -p athena-analyze --bin
//! athena-lint`, in-process, so `cargo test` fails whenever a
//! panic-freedom, unsafe-freedom, lock-discipline, lock-order, or
//! error-hygiene violation lands in production code — including
//! violations only visible through the workspace call graph (a panicking
//! helper three hops below a hot entry point, or a lock acquired in an
//! order that contradicts the derived acquisition graph).

use std::path::Path;

use athena_lint::rules::SourceFile;
use athena_lint::{Config, Severity};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_passes_athena_lint() {
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");
    let report = &analysis.report;

    let mut failures: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(ToString::to_string)
        .collect();
    failures.extend(report.stale_allows.iter().cloned());

    assert!(
        failures.is_empty(),
        "athena-lint found {} violation(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(report.files_scanned > 50, "lint walked the whole workspace");
}

#[test]
fn derived_lock_graph_is_cycle_free_and_ordered() {
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");

    let cycles: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-cycle")
        .collect();
    assert!(
        cycles.is_empty(),
        "derived lock graph has cycles: {cycles:?}"
    );

    // The derivation found real structure, not an empty graph.
    assert!(
        analysis.lock_graph.locks.len() >= 10,
        "expected the workspace's lock population, got {:?}",
        analysis.lock_graph.locks
    );
    assert!(
        !analysis.lock_graph.edges.is_empty(),
        "expected derived acquisition-order edges"
    );
    // Acyclic ⇒ the suggested order is a valid topological sort covering
    // every lock (cycle members would simply be appended, so the length
    // check alone is not enough — the cycle assert above is).
    assert_eq!(
        analysis.lock_graph.suggested_order.len(),
        analysis.lock_graph.locks.len()
    );
}

#[test]
fn hot_propagation_reaches_transitive_helpers() {
    // None of these files appears in [analyze] hot_entries: they are
    // reached only through the call graph (forwarding path → match/route
    // helpers; tick crediting → link contention). The old hand-maintained
    // per-file hot list never covered them. (`topology.rs::shortest_path`
    // used to be on this list; the ECMP controller stub now routes over
    // cached BFS distance maps built from `Topology::adjacency`, so the
    // per-packet path no longer touches it.)
    let analysis = athena_analyze::check_workspace(root()).expect("analysis engine runs");
    for expected in [
        "crates/openflow/src/match_fields.rs::matches",
        "crates/dataplane/src/topology.rs::adjacency",
        "crates/openflow/src/table.rs::lookup_at",
        "crates/dataplane/src/link.rs::settle_tick",
    ] {
        assert!(
            analysis.hot_functions.iter().any(|h| h == expected),
            "{expected} should be transitively hot; got {} hot functions",
            analysis.hot_functions.len()
        );
    }
}

/// A minimal config for the seeded-violation tests below.
fn test_config(extra: &str) -> Config {
    Config::parse(&format!(
        "[analyze]\n\
         hot_entries = [\"crates/x/src/entry.rs::*\"]\n\
         lock_order = [\"x/a\", \"x/b\"]\n\
         lock_helpers = [\"lock_std\"]\n\
         {extra}\n\
         [lint]\n\
         bus_calls = [\"dispatch\"]\n\
         println_exempt = []\n\
         wallclock_exempt = []\n"
    ))
    .expect("test config parses")
}

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile::new(path.to_string(), text.to_string())
}

#[test]
fn propagated_panic_carries_call_chain_witness() {
    // The unwrap lives two files away from the hot entry point; only the
    // call graph connects them. The finding must carry the chain.
    let config = test_config("");
    let files = [
        file(
            "crates/x/src/entry.rs",
            "pub fn per_packet(v: u8) -> u8 { crate::helper::step(v) }",
        ),
        file(
            "crates/x/src/helper.rs",
            "pub fn step(v: u8) -> u8 { deep(v) }\n\
             pub fn deep(v: u8) -> u8 { Some(v).unwrap() }",
        ),
    ];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    let diags: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-panic-in-hot-path")
        .collect();
    assert_eq!(diags.len(), 1, "{:?}", analysis.report.diagnostics);
    assert_eq!(diags[0].file, "crates/x/src/helper.rs");
    assert!(
        !diags[0].witness.is_empty(),
        "propagated finding must explain how the site became hot"
    );
    assert!(
        diags[0].witness.iter().any(|h| h.contains("per_packet")),
        "witness should trace back to the hot entry: {:?}",
        diags[0].witness
    );
}

#[test]
fn seeded_lock_inversion_fails_static_gate() {
    // lock_order declares a before b; this code acquires b then a. The
    // derived edge `x/b` → `x/a` must contradict the declared order.
    let config = test_config("");
    let files = [file(
        "crates/x/src/entry.rs",
        "use parking_lot::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn inverted(&self) -> u32 {\n\
                 let gb = self.b.lock();\n\
                 let ga = self.a.lock();\n\
                 *ga + *gb\n\
             }\n\
         }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    let diags: Vec<_> = analysis
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-order-violation")
        .collect();
    assert_eq!(diags.len(), 1, "{:?}", analysis.report.diagnostics);
    assert!(
        diags[0].message.contains("`x/b` → `x/a`"),
        "{}",
        diags[0].message
    );

    // The same acquisitions split across two functions joined by a call
    // edge must be caught too — the graph-aware part.
    let files = [file(
        "crates/x/src/entry.rs",
        "use parking_lot::Mutex;\n\
         pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
         impl S {\n\
             pub fn outer(&self) -> u32 {\n\
                 let gb = self.b.lock();\n\
                 *gb + self.inner()\n\
             }\n\
             fn inner(&self) -> u32 {\n\
                 *self.a.lock()\n\
             }\n\
         }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    assert!(
        analysis
            .report
            .diagnostics
            .iter()
            .any(|d| d.rule == "lock-order-violation"),
        "cross-function inversion missed: {:?}",
        analysis.report.diagnostics
    );
}

#[test]
fn stale_allow_entries_fail_the_gate_with_a_pointer() {
    let config = test_config(
        "[[allow]]\n\
         rule = \"no-panic-in-hot-path\"\n\
         file = \"crates/x/src/entry.rs\"\n\
         pattern = \"nothing matches this\"\n\
         reason = \"stale on purpose\"\n",
    );
    let files = [file(
        "crates/x/src/entry.rs",
        "pub fn per_packet(v: u8) -> u8 { v }",
    )];
    let analysis = athena_analyze::analyze_sources(&config, &files);
    assert!(
        analysis.report.has_errors(),
        "stale allow must fail the gate"
    );
    assert_eq!(analysis.report.stale_allows.len(), 1);
    assert!(
        analysis.report.stale_allows[0].contains("lint.toml:"),
        "stale-allow report must point at the line to delete: {}",
        analysis.report.stale_allows[0]
    );
}

#[test]
fn lint_catches_println_in_library_code() {
    use athena_lint::rules::{NoPrintlnInLib, Rule};

    let config = athena_lint::load_config(root()).expect("lint.toml parses");

    let lib = file(
        "crates/store/src/cluster.rs",
        "fn log(n: u64) { println!(\"{n}\"); }",
    );
    let mut out = Vec::new();
    NoPrintlnInLib.check(&lib, &config, &mut out);
    assert_eq!(out.len(), 1, "library println must be flagged: {out:?}");

    // The same text in an exempt binary path is fine.
    let bin = file(
        "crates/bench/src/bin/table9_cbench.rs",
        "fn log(n: u64) { println!(\"{n}\"); }",
    );
    let mut out = Vec::new();
    NoPrintlnInLib.check(&bin, &config, &mut out);
    assert!(out.is_empty(), "exempt binaries may print: {out:?}");
}
