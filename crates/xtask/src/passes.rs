//! The three graph/token analysis passes introduced by mob-audit v3:
//!
//! * **`panic_reach`** — builds the workspace call graph
//!   ([`crate::callgraph`]), seeds it at every untrusted decode entry
//!   point, and reports every path to a panic sink (`panic!`-family
//!   macro, `.unwrap()`, `.expect(…)`, `[…]` indexing) plus every call
//!   that resolves to nothing known-total. The full call chain from the
//!   seed is printed with each violation.
//! * **`atomics_order`** — `Ordering::Relaxed` is permitted only inside
//!   `crates/obs/src` (monotone counters merged under a lock; see
//!   DESIGN.md §9). Everywhere else cross-thread hand-off must use the
//!   documented Acquire/Release pairs, so any `Relaxed` token outside
//!   mob-obs is a violation.
//! * **`determinism`** — `HashMap`/`HashSet` are banned in mob-rel,
//!   mob-storage and mob-core: their iteration order is randomized per
//!   process, and those crates feed query results and serialized bytes
//!   that are contractually byte-identical across runs and backends
//!   (DESIGN.md §8). `BTreeMap`/`BTreeSet` are the sanctioned
//!   replacements.

use crate::callgraph::{Call, FnItem, Graph, SourceFile};
use crate::lint::Violation;
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};

// ---- audited-total builtins ------------------------------------------
//
// A call that resolves to no workspace `fn` is treated as potentially
// panicking UNLESS its name appears below. Every entry is audited to be
// total — it cannot panic for any input (allocation aborts and
// compile-time-constant misuse like `chunks(0)` aside). Names that CAN
// panic on data (`split_at`, `clamp`, `drain`, `remove`, slice `swap`,
// `rotate_left`, `rem_euclid`, `pow`, …) are deliberately absent.

/// Bare method / function names audited as total (sorted, deduped).
pub const TOTAL_BUILTINS: &[&str] = &[
    "Err",
    "Ok",
    "Some",
    "abs",
    "abs_diff",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_deref_mut",
    "as_mut",
    "as_mut_slice",
    "as_os_str",
    "as_path",
    "as_ref",
    "as_slice",
    "as_str",
    "atan2",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "borrow",
    "borrow_mut",
    "by_ref",
    "bytes",
    "ceil",
    "chain",
    "char_indices",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_neg",
    "checked_pow",
    "checked_rem",
    "checked_shl",
    "checked_shr",
    "checked_sub",
    "chunks",
    "chunks_exact",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "compare_exchange_weak",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice_checked",
    "cos",
    "count",
    "count_ones",
    "count_zeros",
    "create_dir_all",
    "cycle",
    "dedup",
    "dedup_by",
    "dedup_by_key",
    "default",
    "deref",
    "display",
    "drop",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "eq_ignore_ascii_case",
    "err",
    "escape_debug",
    "exists",
    "exp",
    "extend",
    "extend_from_slice",
    "extension",
    "fetch_add",
    "fetch_and",
    "fetch_or",
    "fetch_sub",
    "field",
    "file_name",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "finish",
    "finish_non_exhaustive",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "for_each",
    "fract",
    "from",
    "from_be_bytes",
    "from_bits",
    "from_le_bytes",
    "from_ne_bytes",
    "from_str",
    "from_str_radix",
    "fuse",
    "ge",
    "get",
    "get_mut",
    "get_or_init",
    "get_or_insert_with",
    "gt",
    "hash",
    "hypot",
    "insert",
    "inspect",
    "inspect_err",
    "into",
    "into_inner",
    "into_iter",
    "is_ascii",
    "is_ascii_hexdigit",
    "is_char_boundary",
    "is_dir",
    "is_empty",
    "is_err",
    "is_file",
    "is_finite",
    "is_infinite",
    "is_multiple_of",
    "is_nan",
    "is_none",
    "is_none_or",
    "is_ok",
    "is_sign_negative",
    "is_sign_positive",
    "is_some",
    "is_some_and",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "last_mut",
    "le",
    "leading_zeros",
    "len",
    "lines",
    "ln",
    "load",
    "lock",
    "log10",
    "log2",
    "lt",
    "make_ascii_lowercase",
    "map",
    "map_err",
    "map_or",
    "map_or_else",
    "map_while",
    "max",
    "max_by",
    "max_by_key",
    "metadata",
    "min",
    "min_by",
    "min_by_key",
    "mul_add",
    "ne",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or",
    "or_else",
    "or_insert",
    "pad",
    "parent",
    "parse",
    "partial_cmp",
    "partition",
    "partition_point",
    "path",
    "peek",
    "peekable",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recip",
    "remove_file",
    "rename",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "reverse",
    "rfind",
    "round",
    "rposition",
    "rsplit",
    "rsplit_once",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "scan",
    "seek",
    "set",
    "set_len",
    "signum",
    "sin",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "source",
    "split",
    "split_first",
    "split_last",
    "split_once",
    "split_terminator",
    "split_whitespace",
    "splitn",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap_bytes",
    "sync_all",
    "sync_data",
    "take",
    "take_while",
    "tan",
    "then",
    "then_some",
    "then_with",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_be",
    "to_be_bytes",
    "to_bits",
    "to_degrees",
    "to_le",
    "to_le_bytes",
    "to_lowercase",
    "to_ne_bytes",
    "to_owned",
    "to_path_buf",
    "to_radians",
    "to_string",
    "to_string_lossy",
    "to_uppercase",
    "to_vec",
    "total_cmp",
    "trailing_zeros",
    "transpose",
    "trim",
    "trim_end",
    "trim_end_matches",
    "trim_start",
    "trim_start_matches",
    "trunc",
    "truncate",
    "try_fold",
    "try_for_each",
    "try_from",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "unzip",
    "values",
    "values_mut",
    "windows",
    "with_capacity",
    "with_extension",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_neg",
    "wrapping_sub",
    "write_all",
    "write_char",
    "write_fmt",
    "write_str",
    "zip",
];

/// `Type::name` / `module::name` paths audited as total, for names too
/// ambiguous (or too panic-prone under other receivers) to admit bare.
pub const TOTAL_QUALIFIED: &[&str] = &[
    "Arc::clone",
    "Arc::new",
    "AtomicBool::new",
    "AtomicU32::new",
    "AtomicU64::new",
    "AtomicUsize::new",
    "BTreeMap::new",
    "BTreeSet::new",
    "Box::new",
    "Cell::new",
    "Cow::Borrowed",
    "Cow::Owned",
    "Duration::from_micros",
    "Duration::from_millis",
    "Duration::from_nanos",
    "Duration::from_secs",
    "Instant::now",
    "Mutex::new",
    "OnceLock::new",
    "Path::new",
    "PathBuf::from",
    "PathBuf::new",
    "Rc::new",
    "RefCell::new",
    "RwLock::new",
    "String::from",
    "String::from_utf8",
    "String::from_utf8_lossy",
    "String::new",
    "String::with_capacity",
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
    "array::from_fn",
    "char::from",
    "char::from_u32",
    "cmp::Reverse",
    "cmp::max",
    "cmp::min",
    "env::var",
    "fs::read_dir",
    "iter::empty",
    "iter::from_fn",
    "iter::once",
    "iter::repeat_n",
    "iter::successors",
    "mem::replace",
    "mem::size_of",
    "mem::swap",
    "mem::take",
    "str::from_utf8",
    "thread::available_parallelism",
];

// ---- scopes ----------------------------------------------------------

/// `(crate_name, src_dir)` for every workspace crate except the vendored
/// `shim-*` stand-ins and `xtask` itself.
pub fn graph_crate_dirs(root: &Path, errors: &mut Vec<String>) -> Vec<(String, PathBuf)> {
    let crates_dir = root.join("crates");
    let entries = match std::fs::read_dir(&crates_dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("read_dir {}: {e}", crates_dir.display()));
            return Vec::new();
        }
    };
    let mut dirs: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().to_string();
            let src = e.path().join("src");
            if name.starts_with("shim-") || name == "xtask" || !src.is_dir() {
                None
            } else {
                Some((name, src))
            }
        })
        .collect();
    dirs.sort();
    dirs
}

// ---- pass: panic_reach -----------------------------------------------

/// Is this fn an untrusted decode entry point (a reachability seed)?
///
/// The seed set is the full untrusted-bytes surface from DESIGN.md
/// §10–11: mapped-view openers, store-file decoders, index loading and
/// reassembly, durable-store recovery.
pub fn is_seed(f: &FnItem) -> bool {
    if f.is_test {
        return false;
    }
    let q = f.qual.as_deref();
    f.name.starts_with("open_m")
        || (q == Some("StoreFile") && f.name.starts_with("from_bytes"))
        || f.name == "load_index"
        || (q == Some("Index") && f.name == "from_parts")
        || (q == Some("DurableStore") && f.name.starts_with("open"))
        || (q == Some("StoreOptions") && f.name.starts_with("open"))
        || f.name.starts_with("decode_image")
        || f.name.starts_with("decode_delta")
        || f.name.starts_with("decode_and_apply_delta")
        || f.name.starts_with("replay_")
        || f.name == "recover"
}

/// How a call site resolved.
enum Res {
    /// Edges into workspace fns.
    Edges(Vec<usize>),
    /// Known-total (constructor or audited builtin) — no edge, no risk.
    Total,
    /// Nothing matched — treated as potentially panicking.
    Unknown,
}

/// Import roots that make a name definitively foreign: a file that
/// wrote `use std::io::Cursor` must not have its `Cursor::new` edge
/// into a workspace type of the same name.
const FOREIGN_ROOTS: [&str; 3] = ["alloc", "core", "std"];

fn is_foreign(file: &SourceFile, name: &str) -> bool {
    file.imports
        .get(name)
        .is_some_and(|root| FOREIGN_ROOTS.contains(&root.as_str()))
}

fn resolve(g: &Graph, file: &SourceFile, call: &Call) -> Res {
    if let Some(q) = &call.qual {
        let key = format!("{q}::{}", call.name);
        if !is_foreign(file, q) {
            if let Some(v) = g.by_qual.get(&key) {
                return Res::Edges(v.clone());
            }
            if g.constructors.contains(&key) {
                return Res::Total;
            }
        }
        if TOTAL_QUALIFIED.binary_search(&key.as_str()).is_ok() {
            return Res::Total;
        }
        // A lowercase qualifier is a module path (`checked::idx_usize`),
        // where the written qualifier need not be the defining module:
        // fall back to the bare name across the workspace.
        let module_like = q.chars().next().is_some_and(char::is_lowercase);
        // A qualifier naming a workspace type alias (`TimeInterval::point`
        // where the fn is keyed under the aliased type) or a generic
        // parameter (`S::is_discrete`) never matches `by_qual`: fall back
        // to the bare name too.
        let generic_like = q.len() <= 2 && q.chars().all(|c| c.is_ascii_uppercase());
        let alias_like = g.types.contains(q.as_str()) || generic_like;
        if (module_like || alias_like) && !is_foreign(file, q) {
            if let Some(v) = g.by_name.get(&call.name) {
                return Res::Edges(v.clone());
            }
        }
        if TOTAL_BUILTINS.binary_search(&call.name.as_str()).is_ok() {
            return Res::Total;
        }
        return Res::Unknown;
    }
    if call.method {
        if let Some(v) = g.by_name.get(&call.name) {
            return Res::Edges(v.clone());
        }
        if TOTAL_BUILTINS.binary_search(&call.name.as_str()).is_ok() {
            return Res::Total;
        }
        return Res::Unknown;
    }
    if !is_foreign(file, &call.name) {
        if let Some(v) = g.by_name.get(&call.name) {
            return Res::Edges(v.clone());
        }
        if g.constructors.contains(&call.name) {
            return Res::Total;
        }
    }
    if TOTAL_BUILTINS.binary_search(&call.name.as_str()).is_ok() {
        return Res::Total;
    }
    Res::Unknown
}

/// Run panic-reachability over the real workspace.
pub fn panic_reach(root: &Path, errors: &mut Vec<String>) -> Vec<Violation> {
    let dirs = graph_crate_dirs(root, errors);
    let (g, build_errors) = Graph::build(root, &dirs);
    errors.extend(build_errors);
    reach_violations(&g)
}

/// BFS the graph from the seed set; report sinks and unresolved calls in
/// every reachable non-test fn, each with its call chain from a seed.
pub fn reach_violations(g: &Graph) -> Vec<Violation> {
    let mut parent: Vec<Option<usize>> = vec![None; g.fns.len()];
    let mut seen = vec![false; g.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, f) in g.fns.iter().enumerate() {
        if is_seed(f) {
            seen[i] = true;
            queue.push_back(i);
        }
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<(String, usize, String)> = BTreeSet::new();
    while let Some(u) = queue.pop_front() {
        let fun = &g.fns[u];
        let file = &g.files[fun.file];
        let chain = chain_of(g, &parent, u);
        for (kind, line) in &fun.facts.sinks {
            push_violation(
                &mut out,
                &mut reported,
                file,
                *line,
                format!(
                    "{} is reachable from untrusted decode input — return a \
                     DecodeError instead (chain below; sanctioned exceptions go in \
                     crates/xtask/allow/panic_reach.allow)",
                    kind.label()
                ),
                &chain,
            );
        }
        for call in &fun.facts.calls {
            match resolve(g, file, call) {
                Res::Edges(targets) => {
                    for t in targets {
                        if !seen[t] && !g.fns[t].is_test {
                            seen[t] = true;
                            parent[t] = Some(u);
                            queue.push_back(t);
                        }
                    }
                }
                Res::Total => {}
                Res::Unknown => {
                    let shown = match &call.qual {
                        Some(q) => format!("{q}::{}", call.name),
                        None => call.name.clone(),
                    };
                    push_violation(
                        &mut out,
                        &mut reported,
                        file,
                        call.line,
                        format!(
                            "call to `{shown}` resolves to no workspace fn and is not \
                             in the audited-total builtin table — treated as \
                             potentially panicking on untrusted input"
                        ),
                        &chain,
                    );
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

fn chain_of(g: &Graph, parent: &[Option<usize>], mut u: usize) -> Vec<String> {
    let mut hops = vec![u];
    while let Some(p) = parent[u] {
        hops.push(p);
        u = p;
    }
    hops.reverse();
    hops.iter()
        .map(|&i| {
            let f = &g.fns[i];
            format!("{} ({}:{})", f.qualified(), g.files[f.file].path, f.line)
        })
        .collect()
}

fn push_violation(
    out: &mut Vec<Violation>,
    reported: &mut BTreeSet<(String, usize, String)>,
    file: &SourceFile,
    line: usize,
    help: String,
    chain: &[String],
) {
    if !reported.insert((file.path.clone(), line, help.clone())) {
        return;
    }
    out.push(Violation {
        rule: "panic_reach",
        path: file.path.clone(),
        line,
        content: file.line_content(line),
        help,
        chain: chain.to_vec(),
    });
}

// ---- pass: atomics_order ---------------------------------------------

/// Token lines (1-based, non-test) carrying a `Relaxed` memory-ordering
/// ident. The lexer has already dropped comments and string interiors.
pub fn scan_atomics(sf: &SourceFile) -> Vec<usize> {
    let mut lines = BTreeSet::new();
    for (i, t) in sf.toks.iter().enumerate() {
        if sf.in_test[i] || !t.is_ident("Relaxed") {
            continue;
        }
        lines.insert(t.line);
    }
    lines.into_iter().collect()
}

/// Run the atomics-ordering audit: `Ordering::Relaxed` outside
/// `crates/obs/src` (where the counters are sanctioned) is a violation.
pub fn atomics_order(root: &Path, errors: &mut Vec<String>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, dir) in graph_crate_dirs(root, errors) {
        for sf in load_dir(root, &name, &dir, errors) {
            if sf.crate_name == "obs" {
                continue;
            }
            for line in scan_atomics(&sf) {
                out.push(Violation {
                    rule: "atomics_order",
                    path: sf.path.clone(),
                    line,
                    content: sf.line_content(line),
                    help: "Relaxed ordering is sanctioned only for mob-obs counters — \
                           cross-thread hand-off must use the documented \
                           Acquire/Release pair (see DESIGN.md §8/§9)"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

// ---- pass: determinism -----------------------------------------------

/// Token lines (1-based, non-test) referencing `HashMap`/`HashSet`.
pub fn scan_determinism(sf: &SourceFile) -> Vec<usize> {
    let mut lines = BTreeSet::new();
    for (i, t) in sf.toks.iter().enumerate() {
        if sf.in_test[i] {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            lines.insert(t.line);
        }
    }
    lines.into_iter().collect()
}

/// Run the determinism audit over the crates whose output is
/// contractually byte-identical across runs: rel, storage, core.
pub fn determinism(root: &Path, errors: &mut Vec<String>) -> Vec<Violation> {
    let mut out = Vec::new();
    for name in ["core", "rel", "storage"] {
        let dir = root.join("crates").join(name).join("src");
        for sf in load_dir(root, name, &dir, errors) {
            for line in scan_determinism(&sf) {
                out.push(Violation {
                    rule: "determinism",
                    path: sf.path.clone(),
                    line,
                    content: sf.line_content(line),
                    help: "HashMap/HashSet iteration order is randomized per process; \
                           this crate feeds query results / serialized bytes that must \
                           be byte-identical across runs — use BTreeMap/BTreeSet"
                        .to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    out
}

// ---- shared file loading ---------------------------------------------

/// Lex every `.rs` file under `dir` into [`SourceFile`]s (items are
/// discarded — the token-level passes only need tokens + test regions).
pub fn load_dir(
    root: &Path,
    crate_name: &str,
    dir: &Path,
    errors: &mut Vec<String>,
) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    walk_rs(dir, &mut paths, errors);
    let mut out = Vec::new();
    for p in paths {
        let src = match std::fs::read_to_string(&p) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("read {}: {e}", p.display()));
                continue;
            }
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let (sf, _) = SourceFile::new(rel, crate_name.to_string(), &src);
        out.push(sf);
    }
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>, errors: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push(format!("read_dir {}: {e}", dir.display()));
            return;
        }
    };
    let mut local: Vec<PathBuf> = Vec::new();
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out, errors);
        } else if p.extension().is_some_and(|x| x == "rs") {
            local.push(p);
        }
    }
    local.sort();
    out.extend(local);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_tables_are_sorted_for_binary_search() {
        let mut names = TOTAL_BUILTINS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names, TOTAL_BUILTINS,
            "TOTAL_BUILTINS must be sorted+deduped"
        );
        let mut quals = TOTAL_QUALIFIED.to_vec();
        quals.sort_unstable();
        quals.dedup();
        assert_eq!(
            quals, TOTAL_QUALIFIED,
            "TOTAL_QUALIFIED must be sorted+deduped"
        );
    }

    #[test]
    fn panic_capable_names_are_not_in_the_table() {
        for bad in [
            "unwrap",
            "expect",
            "split_at",
            "clamp",
            "drain",
            "remove",
            "swap",
            "swap_remove",
            "rotate_left",
            "rem_euclid",
            "div_euclid",
            "pow",
            "repeat",
        ] {
            assert!(
                TOTAL_BUILTINS.binary_search(&bad).is_err(),
                "`{bad}` can panic and must not be audited total"
            );
        }
    }

    #[test]
    fn relaxed_in_strings_and_comments_does_not_fire() {
        let (sf, _) = SourceFile::new(
            "t.rs".into(),
            "t".into(),
            "// Ordering::Relaxed in a comment\nfn f() { let _ = \"Ordering::Relaxed\"; }\n\
             fn g() -> u64 { C.load(Ordering::Relaxed) }",
        );
        assert_eq!(scan_atomics(&sf), vec![3]);
    }

    #[test]
    fn hash_collections_fire_outside_tests_only() {
        let (sf, _) = SourceFile::new(
            "t.rs".into(),
            "t".into(),
            "use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) {}\n\
             #[cfg(test)]\nmod tests { use std::collections::HashSet; }",
        );
        assert_eq!(scan_determinism(&sf), vec![1, 2]);
    }
}
