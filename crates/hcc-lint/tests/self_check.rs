//! Tier-1 workspace self-check: the shipped tree must lint clean, and
//! the static analyzer's declared lock order must be byte-for-byte the
//! order the runtime checker (`hcc_engine::locks`) enforces.

use std::path::Path;

use hcc_lint::rules::lock_order::LOCK_ORDER;
use hcc_lint::rules::{determinism, noise, panic_policy};
use hcc_lint::{find_workspace_root, lint_workspace};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("hcc-lint lives inside the workspace")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace sources readable");
    assert!(
        report.is_clean(),
        "the tree must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files > 50,
        "suspiciously few files scanned ({}) — collection is broken",
        report.files
    );
}

/// Scope lists name files and crates by path, so a deleted or moved
/// file would leave an entry that silently covers nothing.
#[test]
fn every_scope_entry_exists() {
    let root = workspace_root();
    let missing: Vec<&str> = determinism::SCOPED_CRATES
        .iter()
        .chain(&determinism::SCOPED_ENGINE_FILES)
        .chain(&panic_policy::SCOPED_FILES)
        .chain(&panic_policy::SCOPED_CRATES)
        .chain(&noise::SEED_SCOPED)
        .chain(std::iter::once(&noise::NOISE_CRATE))
        .filter(|path| !root.join(path).exists())
        .copied()
        .collect();
    assert!(missing.is_empty(), "stale lint scope entries: {missing:?}");
}

#[test]
fn static_and_runtime_lock_orders_agree() {
    assert_eq!(
        LOCK_ORDER,
        hcc_engine::locks::RANK_NAMES,
        "hcc-lint's declared order and the runtime rank checker drifted apart"
    );
}

#[test]
fn lock_graph_covers_every_rank_and_is_acyclic() {
    let report = lint_workspace(&workspace_root()).expect("workspace sources readable");
    let graph = &report.lock_graph;
    assert!(
        graph.sites > 0,
        "no acquisition sites found — the lock-order scan is broken"
    );
    for rank in LOCK_ORDER {
        assert!(
            graph.acquired.contains(&rank),
            "rank `{rank}` has no acquisition site; stale rank table?"
        );
    }
    // Order violations and cycles would have been findings; double-check
    // the rendered graph agrees.
    let rendered = graph.render();
    assert!(
        rendered.contains(
            "declared order: \
             state < cache < registry < store < lanes < gate < job < telemetry < wire"
        ),
        "{rendered}"
    );
}
