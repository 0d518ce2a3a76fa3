//! Rule `lock-order`: the engine's lock-acquisition graph must be cycle-free
//! and respect the declared rank order.
//!
//! The engine holds nine families of locks (the original five, two
//! internal ones, the reactor's completion queue, and the durable
//! store). Deadlock freedom is guaranteed by a total order: a thread may
//! only acquire a lock of strictly higher rank than every lock it
//! already holds:
//!
//! ```text
//! state < cache < registry < store < lanes < gate < job < telemetry < wire
//! ```
//!
//! This pass extracts every `.lock()` acquisition site in
//! `crates/hcc-engine/src/`, classifies the receiver to a rank, tracks an
//! approximate guard scope (a `let`-bound guard lives to the end of its
//! enclosing block or an explicit `drop(name)`; an unbound temporary lives to
//! the end of its statement), and records a `held → acquired` edge for every
//! nesting it sees. After all files are scanned the edge set is checked
//! against the declared order and for cycles. The same order is enforced
//! dynamically by `hcc_engine::locks` under `debug_assertions`; the
//! workspace self-check test asserts both sides agree on the rank names.
//!
//! Known approximations (see docs/lints.md): a guard bound by `if let` /
//! `while let` or used as a bare temporary is modeled as released at the next
//! statement boundary, slightly earlier than the language drops it. This can
//! miss a nesting edge inside such a body; it never invents one.

use crate::lexer::Token;
use crate::rules::Finding;
use crate::syntax::SourceFile;

/// The declared rank order, lowest first. Must match
/// `hcc_engine::locks::RANK_NAMES` (asserted by the self-check test).
pub const LOCK_ORDER: [&str; 9] = [
    "state",
    "cache",
    "registry",
    "store",
    "lanes",
    "gate",
    "job",
    "telemetry",
    "wire",
];

/// Map a receiver identifier at a `.lock()` call site to its rank name.
/// Every lock in the engine must be classifiable; an unknown receiver is a
/// finding, which forces new locks to be registered here *and* in
/// `hcc_engine::locks::Rank`.
fn rank_of_receiver(name: &str) -> Option<&'static str> {
    match name {
        "state" => Some("state"),
        "cache" => Some("cache"),
        "registry" => Some("registry"),
        "durable" => Some("store"),
        "lanes" | "lane" => Some("lanes"),
        "permits" => Some("gate"),
        "estimates" | "failure" => Some("job"),
        "rings" | "ring" => Some("telemetry"),
        "completions" => Some("wire"),
        _ => None,
    }
}

fn rank_index(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|r| *r == name)
}

/// One observed `held → acquired` nesting, with the site of the acquisition.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Rank held at the time of acquisition.
    pub from: &'static str,
    /// Rank being acquired.
    pub to: &'static str,
    /// File of the acquisition site.
    pub path: String,
    /// Line of the acquisition site.
    pub line: u32,
}

/// The accumulated cross-file lock graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Distinct nesting edges (first site seen per `(from, to)` pair).
    pub edges: Vec<Edge>,
    /// Every rank with at least one acquisition site, in declared order.
    pub acquired: Vec<&'static str>,
    /// Total number of `.lock()` sites classified.
    pub sites: usize,
}

impl LockGraph {
    fn note_acquired(&mut self, rank: &'static str) {
        if !self.acquired.contains(&rank) {
            self.acquired.push(rank);
            self.acquired
                .sort_by_key(|r| rank_index(r).unwrap_or(usize::MAX));
        }
        self.sites += 1;
    }

    fn note_edge(&mut self, from: &'static str, to: &'static str, path: &str, line: u32) {
        if !self.edges.iter().any(|e| e.from == from && e.to == to) {
            self.edges.push(Edge {
                from,
                to,
                path: path.to_string(),
                line,
            });
        }
    }

    /// Render the graph for `--lock-graph`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("declared order: ");
        out.push_str(&LOCK_ORDER.join(" < "));
        out.push('\n');
        out.push_str(&format!(
            "acquisition sites: {} across ranks [{}]\n",
            self.sites,
            self.acquired.join(", ")
        ));
        if self.edges.is_empty() {
            out.push_str("nesting edges: none (no lock is ever held across another acquisition)\n");
        } else {
            out.push_str("nesting edges:\n");
            for e in &self.edges {
                out.push_str(&format!(
                    "  {} -> {}  ({}:{})\n",
                    e.from, e.to, e.path, e.line
                ));
            }
        }
        out
    }
}

/// True when `rel` is scanned by this rule. `locks.rs` is the enforcement
/// mechanism itself (its `inner.lock()` is rank-checked at runtime), so it is
/// the one engine file excluded.
pub fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/hcc-engine/src/") && rel != "crates/hcc-engine/src/locks.rs"
}

#[derive(Debug)]
struct Guard {
    rank: &'static str,
    /// `Some(name)` for `let name = ...lock()...;` bindings.
    binder: Option<String>,
    /// Block depth at acquisition; bound guards die when it closes.
    depth: usize,
}

/// Scan one file: classify acquisition sites, track guard scopes, and add
/// nesting edges to `graph`. Unclassifiable receivers become findings.
pub fn scan(file: &SourceFile, graph: &mut LockGraph, out: &mut Vec<Finding>) {
    if !in_scope(&file.rel) {
        return;
    }
    let code: Vec<&Token> = file.code().map(|(_, t)| t).collect();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut await_binder = false;
    let mut stmt_binder: Option<String> = None;

    let release_temporaries = |guards: &mut Vec<Guard>| {
        guards.retain(|g| g.binder.is_some());
    };

    let mut k = 0usize;
    while k < code.len() {
        let t = code[k];
        if t.is_punct('{') {
            depth += 1;
            release_temporaries(&mut guards);
            await_binder = false;
            stmt_binder = None;
        } else if t.is_punct('}') {
            release_temporaries(&mut guards);
            guards.retain(|g| !(g.binder.is_some() && g.depth >= depth));
            depth = depth.saturating_sub(1);
            await_binder = false;
            stmt_binder = None;
        } else if t.is_punct(';') {
            release_temporaries(&mut guards);
            await_binder = false;
            stmt_binder = None;
        } else if t.is_ident("let") {
            // `if let` / `while let` guards are temporaries (released at the
            // end of the statement), not block-scoped bindings.
            let conditional =
                k > 0 && (code[k - 1].is_ident("if") || code[k - 1].is_ident("while"));
            await_binder = !conditional;
            stmt_binder = None;
        } else if await_binder {
            if t.is_ident("mut") {
                // skip
            } else if t.kind == crate::lexer::TokKind::Ident {
                stmt_binder = Some(t.text.clone());
                await_binder = false;
            } else {
                // Destructuring patterns etc.: treat as unbound.
                await_binder = false;
            }
        } else if t.is_ident("drop")
            && k + 3 < code.len()
            && code[k + 1].is_punct('(')
            && code[k + 3].is_punct(')')
        {
            let name = &code[k + 2].text;
            guards.retain(|g| g.binder.as_deref() != Some(name.as_str()));
        }

        // Acquisition site: `<recv> . lock ( )` or a `lock_<rank>()` helper
        // call (skipping helper *definitions*, which follow `fn`).
        // `consumed_at` is the index just past the call's closing paren: a
        // `.` there means the guard is a method-chain temporary
        // (`cache.lock().get(k)`), not what the enclosing `let` binds.
        let mut acquired: Option<(&'static str, u32, usize)> = None;
        if t.is_ident("lock")
            && k >= 1
            && code[k - 1].is_punct('.')
            && k + 2 < code.len()
            && code[k + 1].is_punct('(')
            && code[k + 2].is_punct(')')
        {
            match classify_receiver(&code, k.saturating_sub(2)) {
                Some(rank) => acquired = Some((rank, t.line, k + 3)),
                None => out.push(Finding {
                    rule: "lock-order",
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "unranked lock receiver `{}`: register it in the lint's rank table \
                         and in hcc_engine::locks::Rank",
                        receiver_name(&code, k.saturating_sub(2)).unwrap_or_else(|| "?".into())
                    ),
                }),
            }
        } else if t.kind == crate::lexer::TokKind::Ident
            && t.text.starts_with("lock_")
            && k + 2 < code.len()
            && code[k + 1].is_punct('(')
            && !(k > 0 && code[k - 1].is_ident("fn"))
        {
            let suffix = &t.text["lock_".len()..];
            match rank_of_receiver(suffix) {
                Some(rank) => acquired = Some((rank, t.line, close_paren(&code, k + 1) + 1)),
                None => out.push(Finding {
                    rule: "lock-order",
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!("lock helper `{}` has no declared rank", t.text),
                }),
            }
        }

        if let Some((rank, line, after)) = acquired {
            graph.note_acquired(rank);
            for held in &guards {
                graph.note_edge(held.rank, rank, &file.rel, line);
            }
            let chained = code.get(after).is_some_and(|t| t.is_punct('.'));
            guards.push(Guard {
                rank,
                binder: if chained { None } else { stmt_binder.clone() },
                depth,
            });
        }

        k += 1;
    }
}

/// Index of the `)` matching the `(` at `open` (or `code.len()` if the
/// stream ends first, so `+ 1` stays safely out of range).
fn close_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// The receiver identifier of a `.lock()` call whose token before the `.` is
/// at index `idx` (handles `self.state`, `self.lanes[worker]`,
/// `self.ring(i)` shapes).
fn receiver_name(code: &[&Token], idx: usize) -> Option<String> {
    let t = code.get(idx)?;
    if t.kind == crate::lexer::TokKind::Ident {
        return Some(t.text.clone());
    }
    let (open, close) = if t.is_punct(']') {
        ('[', ']')
    } else if t.is_punct(')') {
        ('(', ')')
    } else {
        return None;
    };
    // Walk back to the matching opener, then take the identifier before it.
    let mut depth = 0usize;
    let mut i = idx;
    loop {
        let c = code.get(i)?;
        if c.is_punct(close) {
            depth += 1;
        } else if c.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                let prev = code.get(i.checked_sub(1)?)?;
                if prev.kind == crate::lexer::TokKind::Ident {
                    return Some(prev.text.clone());
                }
                return None;
            }
        }
        i = i.checked_sub(1)?;
    }
}

fn classify_receiver(code: &[&Token], idx: usize) -> Option<&'static str> {
    rank_of_receiver(&receiver_name(code, idx)?)
}

/// Check the accumulated graph against the declared order and for cycles.
pub fn finalize(graph: &LockGraph, out: &mut Vec<Finding>) {
    for e in &graph.edges {
        let (Some(fi), Some(ti)) = (rank_index(e.from), rank_index(e.to)) else {
            continue;
        };
        if fi >= ti {
            out.push(Finding {
                rule: "lock-order",
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "`{}` acquired while holding `{}` violates the declared order {}",
                    e.to,
                    e.from,
                    LOCK_ORDER.join(" < ")
                ),
            });
        }
    }
    if let Some(cycle) = find_cycle(graph) {
        let site = graph
            .edges
            .iter()
            .find(|e| e.from == cycle[0])
            .map(|e| (e.path.clone(), e.line))
            .unwrap_or_default();
        out.push(Finding {
            rule: "lock-order",
            path: site.0,
            line: site.1,
            message: format!("lock graph contains a cycle: {}", cycle.join(" -> ")),
        });
    }
}

/// DFS cycle detection over the edge set; returns the cycle as a rank list
/// (first node repeated at the end) if one exists.
fn find_cycle(graph: &LockGraph) -> Option<Vec<&'static str>> {
    let nodes: Vec<&'static str> = {
        let mut n: Vec<&'static str> = Vec::new();
        for e in &graph.edges {
            if !n.contains(&e.from) {
                n.push(e.from);
            }
            if !n.contains(&e.to) {
                n.push(e.to);
            }
        }
        n
    };
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut color = vec![0u8; nodes.len()];
    let idx = |name: &str| nodes.iter().position(|n| *n == name);

    fn dfs(
        at: usize,
        nodes: &[&'static str],
        graph: &LockGraph,
        color: &mut [u8],
        stack: &mut Vec<&'static str>,
    ) -> Option<Vec<&'static str>> {
        color[at] = 1;
        stack.push(nodes[at]);
        for e in graph.edges.iter().filter(|e| e.from == nodes[at]) {
            let to = nodes.iter().position(|n| *n == e.to)?;
            match color[to] {
                1 => {
                    let start = stack.iter().position(|n| *n == e.to).unwrap_or(0);
                    let mut cycle: Vec<&'static str> = stack[start..].to_vec();
                    cycle.push(e.to);
                    return Some(cycle);
                }
                0 => {
                    if let Some(c) = dfs(to, nodes, graph, color, stack) {
                        return Some(c);
                    }
                }
                _ => {}
            }
        }
        stack.pop();
        color[at] = 2;
        None
    }

    for name in &nodes {
        let at = idx(name)?;
        if color[at] == 0 {
            let mut stack = Vec::new();
            if let Some(c) = dfs(at, &nodes, graph, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}
