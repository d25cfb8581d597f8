//! Fixture-based self-tests for every zoomer-lint rule: at least one true
//! positive and one false-positive guard per rule, plus the escape-hatch and
//! no-allow-zone semantics. Fixtures are inline strings fed through
//! [`zoomer_lint::lint_source`] under hot-path / library / offline paths, so
//! the suite exercises exactly the scoping the real scan uses.

use zoomer_lint::{lint_source, Violation};

const HOT: &str = "crates/serving/src/fixture.rs";
const GRAPH: &str = "crates/graph/src/fixture.rs";
const KERNEL: &str = "crates/tensor/src/fixture.rs";
const LIBRARY: &str = "crates/model/src/fixture.rs";
const OFFLINE: &str = "crates/train/src/fixture.rs";
const BENCH: &str = "crates/bench/src/fixture.rs";

fn rules_at(violations: &[Violation], line: u32) -> Vec<&'static str> {
    violations.iter().filter(|v| v.line == line).map(|v| v.rule).collect()
}

fn has(violations: &[Violation], rule: &str) -> bool {
    violations.iter().any(|v| v.rule == rule)
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_flags_panicking_calls_in_hot_path_code() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   let a = x.unwrap();\n\
               \x20   let b = x.expect(\"boom\");\n\
               \x20   panic!(\"no\");\n\
               \x20   todo!();\n\
               \x20   unimplemented!()\n\
               }\n";
    let v = lint_source(HOT, src);
    for line in 2..=6 {
        assert_eq!(rules_at(&v, line), vec!["L001"], "line {line}: {v:?}");
    }
}

#[test]
fn l001_ignores_offline_crates_and_test_code() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_source(OFFLINE, src).is_empty(), "offline crates may unwrap");

    let test_src = "fn ok() {}\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                    \x20   #[test]\n\
                    \x20   fn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }\n\
                    }\n";
    assert!(
        lint_source(HOT, test_src).is_empty(),
        "test regions are exempt even on the hot path: {:?}",
        lint_source(HOT, test_src)
    );
}

#[test]
fn l001_ignores_strings_comments_and_lookalikes() {
    let src = "fn f() {\n\
               \x20   let s = \"please don't .unwrap() or panic!(…) here\";\n\
               \x20   // a comment can say x.unwrap() and panic!()\n\
               \x20   /* block comment: .expect(\"ok\") */\n\
               \x20   let unwrap = 1;      // bare ident, not a call\n\
               \x20   let y = s.len();\n\
               \x20   let z = may_panic(); // `panic` without `!` is fine\n\
               }\n";
    assert!(lint_source(HOT, src).is_empty(), "{:?}", lint_source(HOT, src));
}

#[test]
fn l001_allows_unwrap_or_family_and_asserts() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   assert!(x.is_some(), \"construction-time checks stay\");\n\
               \x20   x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n\
               }\n";
    assert!(lint_source(HOT, src).is_empty(), "{:?}", lint_source(HOT, src));
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_flags_unsafe_without_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               \x20   unsafe { *p }\n\
               }\n";
    let v = lint_source(OFFLINE, src);
    assert_eq!(rules_at(&v, 2), vec!["L002"], "{v:?}");
}

#[test]
fn l002_accepts_unsafe_preceded_by_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n\
               \x20   // SAFETY: caller guarantees p is valid for reads.\n\
               \x20   unsafe { *p }\n\
               }\n";
    assert!(lint_source(OFFLINE, src).is_empty(), "{:?}", lint_source(OFFLINE, src));
    // The word `unsafe` inside a string or comment is not an unsafe block.
    let quoted = "fn f() { let s = \"unsafe\"; } // unsafe\n";
    assert!(lint_source(OFFLINE, quoted).is_empty());
}

#[test]
fn l002_pins_the_snapshot_reference_cast_pattern() {
    // The zero-copy snapshot reader's shape: validation above, a multi-line
    // justification, and the `// SAFETY:` sentence as the *final* comment
    // line before `unsafe` — the rule requires the SAFETY token to end
    // within two lines of the unsafe, so detail-first ordering is what
    // keeps the real cast sites (graph/src/snapshot.rs) clean.
    let good = "fn cast(bytes: &[u8]) -> &[u32] {\n\
                \x20   assert_eq!(bytes.len() % 4, 0);\n\
                \x20   assert_eq!(bytes.as_ptr().align_offset(4), 0);\n\
                \x20   // Length divisibility and pointer alignment were just\n\
                \x20   // checked; u32 has no invalid bit patterns.\n\
                \x20   // SAFETY: the checks above make this cast valid.\n\
                \x20   unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }\n\
                }\n";
    assert!(lint_source(GRAPH, good).is_empty(), "{:?}", lint_source(GRAPH, good));

    // Same cast with the SAFETY sentence buried at the *top* of the comment
    // block: more than two lines from `unsafe`, so it does not count.
    let buried = "fn cast(bytes: &[u8]) -> &[u32] {\n\
                  \x20   // SAFETY: the checks below make this cast valid.\n\
                  \x20   // Length divisibility and pointer alignment are\n\
                  \x20   // checked by the caller, and u32 has no invalid\n\
                  \x20   // bit patterns whatsoever.\n\
                  \x20   unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }\n\
                  }\n";
    let v = lint_source(GRAPH, buried);
    assert_eq!(rules_at(&v, 6), vec!["L002"], "{v:?}");
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_flags_lock_unwrap_everywhere_even_offline() {
    let src = "fn f(m: &std::sync::Mutex<u32>, rw: &std::sync::RwLock<u32>) {\n\
               \x20   let a = m.lock().unwrap();\n\
               \x20   let b = rw.read().expect(\"poisoned\");\n\
               \x20   let c = rw.write().unwrap();\n\
               }\n";
    let v = lint_source(OFFLINE, src);
    assert_eq!(rules_at(&v, 2), vec!["L003"]);
    assert_eq!(rules_at(&v, 3), vec!["L003"]);
    assert_eq!(rules_at(&v, 4), vec!["L003"]);
}

#[test]
fn l003_accepts_poison_recovery() {
    let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n\
               \x20   *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
               }\n";
    assert!(lint_source(OFFLINE, src).is_empty(), "{:?}", lint_source(OFFLINE, src));
    // `.unwrap()` not on a lock guard is L003-clean (L001 owns that case).
    let plain = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(!has(&lint_source(OFFLINE, plain), "L003"));
}

// ---------------------------------------------------------------- L004

#[test]
fn l004_flags_println_in_library_crates() {
    let src = "fn f() {\n\
               \x20   println!(\"debug spam\");\n\
               \x20   eprintln!(\"more spam\");\n\
               }\n";
    let v = lint_source(LIBRARY, src);
    assert_eq!(rules_at(&v, 2), vec!["L004"]);
    assert_eq!(rules_at(&v, 3), vec!["L004"]);
}

#[test]
fn l004_exempts_bench_crate_tests_and_strings() {
    let bench = "fn f() { println!(\"benches report to stdout\"); }\n";
    assert!(lint_source(BENCH, bench).is_empty());
    let quoted = "fn f() -> &'static str { \"println!(no)\" } // println! in comment\n";
    assert!(lint_source(LIBRARY, quoted).is_empty());
    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"ok\"); }\n}\n";
    assert!(lint_source(LIBRARY, test_src).is_empty());
}

// ---------------------------------------------------------------- L005

#[test]
fn l005_flags_exact_float_comparison_in_kernel_code() {
    let src = "fn f(a: f32, b: f32) -> bool {\n\
               \x20   a == b\n\
               }\n";
    let v = lint_source(KERNEL, src);
    assert_eq!(rules_at(&v, 2), vec!["L005"], "{v:?}");
    let lit = "fn g(x: f64) -> bool { x != 0.5 }\n";
    assert!(has(&lint_source(KERNEL, lit), "L005"));
}

#[test]
fn l005_ignores_integers_and_non_kernel_crates() {
    let ints = "fn f(a: u32, b: u32) -> bool { a == b && a == 0 }\n";
    assert!(lint_source(KERNEL, ints).is_empty(), "{:?}", lint_source(KERNEL, ints));
    // Float comparison outside kernel/model code is someone else's policy.
    let floats = "fn f(a: f32, b: f32) -> bool { a == b }\n";
    assert!(lint_source(OFFLINE, floats).is_empty());
}

// ------------------------------------------------------- escape hatch

#[test]
fn allow_marker_with_reason_suppresses_its_rule() {
    let src = "fn f(a: f32) -> bool {\n\
               \x20   // lint: allow(L005, exact zero is the sparsity sentinel)\n\
               \x20   a == 0.0\n\
               }\n";
    assert!(lint_source(KERNEL, src).is_empty(), "{:?}", lint_source(KERNEL, src));
}

#[test]
fn allow_marker_only_suppresses_the_named_rule() {
    let src = "fn f(x: Option<f32>) -> bool {\n\
               \x20   // lint: allow(L005, wrong rule for this line)\n\
               \x20   x.unwrap() > 0.0\n\
               }\n";
    assert!(has(&lint_source(HOT, src), "L001"), "{:?}", lint_source(HOT, src));
}

#[test]
fn allow_marker_without_reason_is_itself_a_violation() {
    for bad in [
        "// lint: allow(L001)\n",
        "// lint: allow(L001, )\n",
        "// lint: allow(L999, unknown rule)\n",
        "// lint: allow\n",
    ] {
        let src = format!("fn f() {{\n    {bad}}}\n");
        let v = lint_source(OFFLINE, &src);
        assert!(has(&v, "ALLOW"), "marker {bad:?} must be rejected: {v:?}");
    }
}

// ------------------------------------------------------ no-allow zone

#[test]
fn fault_module_is_covered_by_l001_and_the_no_allow_zone() {
    // The fault-injection module lives on the serving hot path: its non-test
    // code may not panic (injected panics come from caller-supplied
    // closures), and the escape hatch is void there like everywhere else
    // under crates/serving.
    const FAULT: &str = "crates/serving/src/fault.rs";
    let src = "fn fire() {\n\
               \x20   panic!(\"faults must be injected, not hardcoded\");\n\
               }\n";
    let v = lint_source(FAULT, src);
    assert_eq!(rules_at(&v, 2), vec!["L001"], "{v:?}");

    let hatched = "fn fire(x: Option<u32>) -> u32 {\n\
                   \x20   // lint: allow(L001, tempting but forbidden)\n\
                   \x20   x.unwrap()\n\
                   }\n";
    let v = lint_source(FAULT, hatched);
    assert!(has(&v, "L001"), "hatch must not suppress in fault.rs: {v:?}");
    assert!(has(&v, "ALLOW"), "hatch in fault.rs must itself be flagged: {v:?}");
}

#[test]
fn backend_modules_are_covered_by_l001_and_the_no_allow_zone() {
    // The SearchBackend trait and the quantized backend are on the serving
    // hot path like every other probe: non-test code may not panic and the
    // escape hatch is void. New files under crates/serving/src are picked
    // up automatically — this fixture pins that for the backend modules
    // added with the multi-backend refactor.
    for path in ["crates/serving/src/backend.rs", "crates/serving/src/quantized.rs"] {
        let src = "fn probe() {\n\
                   \x20   panic!(\"backends degrade, they do not panic\");\n\
                   }\n";
        let v = lint_source(path, src);
        assert_eq!(rules_at(&v, 2), vec!["L001"], "{path}: {v:?}");

        let hatched = "fn probe(x: Option<u32>) -> u32 {\n\
                       \x20   // lint: allow(L001, tempting but forbidden)\n\
                       \x20   x.unwrap()\n\
                       }\n";
        let v = lint_source(path, hatched);
        assert!(has(&v, "L001"), "hatch must not suppress in {path}: {v:?}");
        assert!(has(&v, "ALLOW"), "hatch in {path} must itself be flagged: {v:?}");
    }
}

#[test]
fn clock_cache_and_brownout_modules_are_covered_by_l001_and_the_no_allow_zone() {
    // The clock sweep in `crates/serving/src/cache.rs` runs under the
    // cache's write lock on every install past capacity, and the brownout
    // rung selection runs per batch: non-test code in either may not
    // panic, and the escape hatch is void like everywhere under
    // crates/serving. The clean fixture mirrors the real sweep's shape — a
    // hand that wraps modulo the ring length and clears reference bits
    // until one was already clear — which stays L001-free without an
    // opt-out.
    const CACHE: &str = "crates/serving/src/cache.rs";
    let clean = "fn sweep(bits: &[AtomicBool], hand: &mut usize) -> usize {\n\
                 \x20   loop {\n\
                 \x20       let idx = *hand;\n\
                 \x20       *hand = (idx + 1) % bits.len();\n\
                 \x20       if !bits[idx].swap(false, Ordering::Relaxed) {\n\
                 \x20           break idx;\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n";
    assert!(lint_source(CACHE, clean).is_empty(), "{:?}", lint_source(CACHE, clean));

    for path in [CACHE, "crates/serving/src/brownout.rs"] {
        let panicky = "fn score(now: u64, touched: u64) -> f32 {\n\
                       \x20   panic!(\"scores degrade to zero, they do not panic\");\n\
                       }\n";
        let v = lint_source(path, panicky);
        assert_eq!(rules_at(&v, 2), vec!["L001"], "{path}: {v:?}");

        let hatched = "fn score(now: u64, touched: u64) -> u64 {\n\
                       \x20   // lint: allow(L001, scores must never panic anyway)\n\
                       \x20   u64::try_from(now - touched).unwrap()\n\
                       }\n";
        let v = lint_source(path, hatched);
        assert!(has(&v, "L001"), "hatch must not suppress in {path}: {v:?}");
        assert!(has(&v, "ALLOW"), "hatch in {path} must itself be flagged: {v:?}");
    }
}

#[test]
fn serving_is_a_no_allow_zone() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               \x20   // lint: allow(L001, serving may never opt out)\n\
               \x20   x.unwrap()\n\
               }\n";
    let v = lint_source(HOT, src);
    // The marker both fails to suppress and is flagged itself.
    assert!(has(&v, "L001"), "hatch must not suppress in crates/serving: {v:?}");
    assert!(has(&v, "ALLOW"), "hatch in crates/serving must be flagged: {v:?}");
    // The same source with the same marker is fine one crate over.
    let v = lint_source(GRAPH, src);
    assert!(!has(&v, "L001") && !has(&v, "ALLOW"), "hatch must work outside serving: {v:?}");
}

// ================================================= cross-file analyzer
//
// L006-L009 run over a whole workspace at once, so their fixtures go
// through [`zoomer_lint::lint_workspace`] with multi-file inputs.

use zoomer_lint::lint_workspace;

fn ws(files: &[(&str, &str)]) -> Vec<Violation> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    lint_workspace(&owned, None, None)
}

const RECOVER: &str = "unwrap_or_else(std::sync::PoisonError::into_inner)";

// ---------------------------------------------------------------- L006

#[test]
fn l006_flags_same_lock_reentry_across_a_call_chain() {
    let src = format!(
        "fn outer(m: &std::sync::Mutex<u32>) {{\n\
         \x20   let g = m.lock().{RECOVER};\n\
         \x20   inner(m);\n\
         \x20   let _ = g;\n\
         }}\n\
         fn inner(m: &std::sync::Mutex<u32>) {{\n\
         \x20   let _x = m.lock().{RECOVER};\n\
         }}\n"
    );
    let v = ws(&[(GRAPH, &src)]);
    assert_eq!(rules_at(&v, 3), vec!["L006"], "{v:?}");
}

#[test]
fn l006_guard_dropped_before_the_call_is_clean() {
    let src = format!(
        "fn outer(m: &std::sync::Mutex<u32>) {{\n\
         \x20   let g = m.lock().{RECOVER};\n\
         \x20   drop(g);\n\
         \x20   inner(m);\n\
         }}\n\
         fn inner(m: &std::sync::Mutex<u32>) {{\n\
         \x20   let _x = m.lock().{RECOVER};\n\
         }}\n"
    );
    let v = ws(&[(GRAPH, &src)]);
    assert!(!has(&v, "L006"), "dropping the guard must clear the re-entry: {v:?}");
}

#[test]
fn l006_flags_lock_order_cycles_across_files() {
    let ab = format!(
        "fn take_ab(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {{\n\
         \x20   let g = x.lock().{RECOVER};\n\
         \x20   let h = y.lock().{RECOVER};\n\
         \x20   let _ = (g, h);\n\
         }}\n"
    );
    let ba = format!(
        "fn take_ba(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {{\n\
         \x20   let h = y.lock().{RECOVER};\n\
         \x20   let g = x.lock().{RECOVER};\n\
         \x20   let _ = (g, h);\n\
         }}\n"
    );
    let v = ws(&[("crates/graph/src/order_a.rs", &ab), ("crates/graph/src/order_b.rs", &ba)]);
    let cycles: Vec<_> =
        v.iter().filter(|x| x.rule == "L006" && x.message.contains("lock-order cycle")).collect();
    assert_eq!(cycles.len(), 1, "one cycle, reported once: {v:?}");
}

#[test]
fn l006_consistent_lock_order_is_clean() {
    let ab = format!(
        "fn take_ab(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {{\n\
         \x20   let g = x.lock().{RECOVER};\n\
         \x20   let h = y.lock().{RECOVER};\n\
         \x20   let _ = (g, h);\n\
         }}\n"
    );
    let ab2 = format!(
        "fn also_ab(x: &std::sync::Mutex<u32>, y: &std::sync::Mutex<u32>) {{\n\
         \x20   let g = x.lock().{RECOVER};\n\
         \x20   let h = y.lock().{RECOVER};\n\
         \x20   let _ = (g, h);\n\
         }}\n"
    );
    let v = ws(&[("crates/graph/src/order_a.rs", &ab), ("crates/graph/src/order_b.rs", &ab2)]);
    assert!(!has(&v, "L006"), "same order everywhere is deadlock-free: {v:?}");
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_flags_blocking_recv_while_guard_is_live_on_hot_path() {
    let src = format!(
        "fn f(m: &std::sync::Mutex<u32>, rx: &crossbeam::channel::Receiver<u32>) {{\n\
         \x20   let g = m.lock().{RECOVER};\n\
         \x20   let v = rx.recv();\n\
         \x20   let _ = (g, v);\n\
         }}\n"
    );
    let v = ws(&[(HOT, &src)]);
    assert_eq!(rules_at(&v, 3), vec!["L007"], "{v:?}");
}

#[test]
fn l007_flags_caller_supplied_closure_under_a_live_guard() {
    let src = format!(
        "fn f<F: FnOnce() -> u32>(m: &std::sync::Mutex<u32>, work: F) -> u32 {{\n\
         \x20   let _g = m.lock().{RECOVER};\n\
         \x20   work()\n\
         }}\n"
    );
    let v = ws(&[(OFFLINE, &src)]);
    assert_eq!(rules_at(&v, 3), vec!["L007"], "{v:?}");
}

#[test]
fn l007_guard_dropped_before_blocking_is_clean() {
    let src = format!(
        "fn f(m: &std::sync::Mutex<u32>, rx: &crossbeam::channel::Receiver<u32>) {{\n\
         \x20   let g = m.lock().{RECOVER};\n\
         \x20   drop(g);\n\
         \x20   let _v = rx.recv();\n\
         }}\n\
         fn scoped(m: &std::sync::Mutex<u32>, rx: &crossbeam::channel::Receiver<u32>) {{\n\
         \x20   {{\n\
         \x20       let _g = m.lock().{RECOVER};\n\
         \x20   }}\n\
         \x20   let _v = rx.recv();\n\
         }}\n"
    );
    let v = ws(&[(HOT, &src)]);
    assert!(!has(&v, "L007"), "guard scope ends before the recv: {v:?}");
}

#[test]
fn l007_is_scoped_to_serving_and_train() {
    // Identical source: hot in serving/train, advisory-silent in graph.
    let src = format!(
        "fn f(m: &std::sync::Mutex<u32>, rx: &crossbeam::channel::Receiver<u32>) {{\n\
         \x20   let g = m.lock().{RECOVER};\n\
         \x20   let v = rx.recv();\n\
         \x20   let _ = (g, v);\n\
         }}\n"
    );
    assert!(has(&ws(&[(OFFLINE, &src)]), "L007"), "train is in scope");
    assert!(!has(&ws(&[(GRAPH, &src)]), "L007"), "graph is not in L007 scope");
}

// ---------------------------------------------------------------- L008

const MANIFEST: &str = "counter serve.requests\ngauge train.epoch_loss\n";

fn ws_with_manifest(files: &[(&str, &str)], manifest: &str) -> Vec<Violation> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    lint_workspace(&owned, Some(manifest), None)
}

#[test]
fn l008_flags_metric_names_missing_from_the_manifest() {
    let src = "fn f(reg: &Registry) {\n\
               \x20   reg.counter(\"serve.requets\").inc();\n\
               }\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], MANIFEST);
    assert!(
        v.iter().any(|x| x.rule == "L008"
            && x.severity == zoomer_lint::Severity::Error
            && x.path == OFFLINE
            && x.line == 2),
        "typo'd name must be caught: {v:?}"
    );
}

#[test]
fn l008_flags_kind_mismatches() {
    let src = "fn f(reg: &Registry) {\n\
               \x20   reg.counter(\"train.epoch_loss\").inc();\n\
               }\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], MANIFEST);
    assert_eq!(rules_at(&v, 2), vec!["L008"], "declared gauge, used as counter: {v:?}");
}

#[test]
fn l008_warns_on_stale_manifest_entries() {
    let src = "fn f(reg: &Registry) {\n\
               \x20   reg.counter(\"serve.requests\").inc();\n\
               }\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], MANIFEST);
    let stale: Vec<_> = v.iter().filter(|x| x.rule == "L008").collect();
    assert_eq!(stale.len(), 1, "{v:?}");
    assert_eq!(stale[0].severity, zoomer_lint::Severity::Warning);
    assert!(stale[0].message.contains("train.epoch_loss"), "{v:?}");
}

#[test]
fn l008_normalizes_format_sites_to_globs() {
    // A format!-built metric name is a *family*: L008 normalizes the
    // interpolation to `*` and requires a matching glob manifest entry.
    let src = "fn f(reg: &Registry, idx: usize) {\n\
               \x20   reg.counter(&format!(\"serve.shard.{idx}.batches\")).inc();\n\
               }\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], MANIFEST);
    assert!(
        v.iter().any(|x| x.rule == "L008"
            && x.severity == zoomer_lint::Severity::Error
            && x.line == 2
            && x.message.contains("serve.shard.*.batches")),
        "uncovered format! site must be caught as its glob: {v:?}"
    );
    let covered = "counter serve.requests\ncounter serve.shard.*.batches\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], covered);
    assert!(
        !v.iter().any(|x| x.rule == "L008" && x.severity == zoomer_lint::Severity::Error),
        "glob manifest entry must cover the format! site: {v:?}"
    );
}

#[test]
fn l008_glob_manifest_entries_cover_literal_sites_and_check_kinds() {
    // The other direction: a glob entry covers literal per-shard names,
    // keeps the entry non-stale, and still enforces the declared kind.
    let src = "fn f(reg: &Registry) {\n\
               \x20   reg.counter(\"serve.shard.0.batches\").inc();\n\
               \x20   reg.counter(\"serve.shard.1.rank_ns\").inc();\n\
               }\n";
    let manifest = "counter serve.shard.*.batches\nhistogram serve.shard.*.rank_ns\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], manifest);
    assert!(rules_at(&v, 2).is_empty(), "literal site under a glob entry is clean: {v:?}");
    assert!(
        v.iter().any(|x| x.rule == "L008"
            && x.line == 3
            && x.severity == zoomer_lint::Severity::Error
            && x.message.contains("histogram")),
        "kind mismatch must survive glob matching: {v:?}"
    );
    assert!(
        !v.iter().any(|x| x.rule == "L008" && x.message.contains("referenced by no metric site")),
        "entries matched through globs are not stale: {v:?}"
    );
}

#[test]
fn l008_skips_dynamic_names_and_test_sites() {
    let src = "fn f(reg: &Registry, name: &str) {\n\
               \x20   reg.counter(name).inc();\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t(reg: &Registry) {{ reg.counter(\"test.only\").inc(); }}\n\
               }\n";
    let manifest = "counter serve.requests\n";
    let v = ws_with_manifest(&[(OFFLINE, src)], manifest);
    let errors: Vec<_> = v
        .iter()
        .filter(|x| x.rule == "L008" && x.severity == zoomer_lint::Severity::Error)
        .collect();
    assert!(errors.is_empty(), "dynamic and test-only sites are out of scope: {v:?}");
}

// ---------------------------------------------------------------- L009

#[test]
fn l009_flags_deadline_parameters_that_are_never_threaded() {
    let src = "fn probe(backend: &IvfIndex, q: &Matrix, k: usize, deadline: &Deadline) -> u32 {\n\
               \x20   backend.search_batch(q, k)\n\
               }\n";
    let v = ws(&[(OFFLINE, src)]);
    assert_eq!(rules_at(&v, 1), vec!["L009"], "{v:?}");
    assert!(
        v.iter().any(|x| x.rule == "L009" && x.message.contains("SearchBackend")),
        "message should point at the dropped backend budget: {v:?}"
    );
}

#[test]
fn l009_forwarded_or_consulted_deadlines_are_clean() {
    let forwarded = "fn probe(b: &IvfIndex, q: &Matrix, k: usize, deadline: &Deadline) -> u32 {\n\
                     \x20   b.search_batch_deadline(q, k, deadline)\n\
                     }\n";
    assert!(!has(&ws(&[(OFFLINE, forwarded)]), "L009"), "forwarding threads the budget");

    let consulted = "fn admit(deadline: &Deadline) -> bool {\n\
                     \x20   !deadline.expired()\n\
                     }\n";
    assert!(!has(&ws(&[(OFFLINE, consulted)]), "L009"), "consulting uses the budget");

    let opted_out = "fn exact(q: &Matrix, _deadline: &Deadline) -> u32 {\n\
                     \x20   scan(q)\n\
                     }\n";
    assert!(!has(&ws(&[(OFFLINE, opted_out)]), "L009"), "`_deadline` is the explicit opt-out");
}

// ------------------------------------------------------------ baseline

#[test]
fn baseline_entry_suppresses_a_cross_file_finding() {
    let src = format!(
        "fn f<F: FnOnce() -> u32>(m: &std::sync::Mutex<u32>, work: F) -> u32 {{\n\
         \x20   let _g = m.lock().{RECOVER};\n\
         \x20   work()\n\
         }}\n"
    );
    let files = vec![(OFFLINE.to_string(), src)];
    let baseline = "L007 crates/train/src/fixture.rs fix lands with the shard split\n";
    let v = lint_workspace(&files, None, Some(baseline));
    assert!(!has(&v, "L007"), "baselined finding must be suppressed: {v:?}");
    assert!(!has(&v, "BASELINE"), "a live entry is not stale: {v:?}");
}

#[test]
fn baseline_rejects_serving_paths_and_missing_reasons() {
    let files: Vec<(String, String)> = vec![];
    for bad in [
        "L007 crates/serving/src/server.rs serving is a no-allow zone\n",
        "L007 crates/train/src/ps.rs\n",
        "L999 crates/train/src/ps.rs unknown rule\n",
    ] {
        let v = lint_workspace(&files, None, Some(bad));
        assert!(
            v.iter().any(|x| x.rule == "BASELINE" && x.severity == zoomer_lint::Severity::Error),
            "entry {bad:?} must be rejected: {v:?}"
        );
    }
}

#[test]
fn baseline_warns_on_stale_entries() {
    let files: Vec<(String, String)> = vec![];
    let stale = "L007 crates/train/src/gone.rs the file was deleted\n";
    let v = lint_workspace(&files, None, Some(stale));
    assert!(
        v.iter().any(|x| x.rule == "BASELINE"
            && x.severity == zoomer_lint::Severity::Warning
            && x.message.contains("stale")),
        "{v:?}"
    );
}

// ------------------------------------------- pinned workspace contracts

#[test]
fn partition_routing_path_stays_lock_free() {
    // `crates/graph/src/partition.rs` promises in its header that the
    // routing path is lock-free (pure arithmetic + relaxed atomics), and
    // the sharded `OnlineServer` multiplies that surface across N shards.
    // Pin the contract: the real file's extracted facts must contain zero
    // lock acquisitions and no guard-returning functions.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = "crates/graph/src/partition.rs";
    let src = std::fs::read_to_string(root.join(path)).expect("partition.rs must exist");
    let facts = zoomer_lint::facts::extract(&zoomer_lint::engine::FileContext::new(path, &src));
    for f in &facts.fns {
        assert!(
            f.acquires.is_empty(),
            "partition.rs fn `{}` (line {}) acquires a lock — the routing path \
             must stay lock-free (see the module header contract)",
            f.name,
            f.line
        );
        assert!(
            f.returns_guard.is_none(),
            "partition.rs fn `{}` (line {}) hands out a lock guard — the routing \
             path must stay lock-free",
            f.name,
            f.line
        );
    }
    // Belt and braces: the lexed code (comments and strings stripped)
    // must never name a lock type, so a future Mutex can't slip in via a
    // pattern the acquire scanner doesn't model.
    let ctx = zoomer_lint::engine::FileContext::new(path, &src);
    for i in 0..ctx.code.len() {
        let t = ctx.code_text(i);
        assert!(
            t != "Mutex" && t != "RwLock",
            "partition.rs line {} names `{t}` — the module contract forbids locks",
            ctx.code_line(i)
        );
    }
}

// ------------------------------------------------- the tree is clean

#[test]
fn real_workspace_has_zero_unsuppressed_errors() {
    // The acceptance bar for the analyzer: both phases over the actual
    // repo report no error-severity findings (warnings — e.g. a stale
    // manifest entry — would fail CI review but not the gate).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let v = zoomer_lint::lint_tree(&root).expect("workspace must be scannable");
    let errors: Vec<_> = v.iter().filter(|x| x.severity == zoomer_lint::Severity::Error).collect();
    assert!(errors.is_empty(), "remediated tree must be clean: {errors:?}");
}
