//! Phase one of the cross-file analyzer: per-function fact extraction.
//!
//! A lightweight item/block parser over the lexed code-token stream. It is
//! *not* a Rust parser — it recognizes exactly the shapes the cross-file
//! rules need (`fn` items, lock acquisitions, outgoing calls, `Deadline`
//! parameters, metric-name literals) and degrades gracefully on everything
//! else. Two invariants the proptest suite enforces: extraction never
//! panics on any lexed token stream, and every recorded span points back
//! into the token stream it came from (`tok < live_end`,
//! `code_line(tok) == line`).
//!
//! Guard-liveness model (deliberately approximate, biased against false
//! positives):
//!   * a `let g = x.lock()` guard lives to the close of the enclosing
//!     block, or to an earlier `drop(g)`;
//!   * a temporary acquire (`x.lock().field`, `let _ = x.lock()`, a lock
//!     in an `if`/`while` condition) lives to the end of its statement;
//!   * a guard produced by the tail expression of a function (or a
//!     `return` statement) marks that function as guard-returning
//!     (`returns_guard`), so callers model the call site as a virtual
//!     acquisition with the call's own liveness span.

use crate::engine::FileContext;
use crate::lexer::TokenKind;

/// One lock acquisition (or, at link time, a virtual one via a call to a
/// guard-returning function).
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Lock identity: `{crate}::{receiver-name}`, e.g. `serving::state`.
    pub lock: String,
    /// `lock` (Mutex) | `read` | `write` (RwLock sides).
    pub mode: &'static str,
    pub line: u32,
    /// Code-token index of the acquiring ident.
    pub tok: usize,
    /// Code-token index (exclusive bound) where the guard dies.
    pub live_end: usize,
    /// Binding name when the guard is let-bound (for `drop` shortening).
    pub binding: Option<String>,
}

/// One outgoing call site.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: String,
    /// Immediate receiver ident: `self.f()` → `self`, `cache.f()` →
    /// `cache`, `module::f()` → `module`, free `f()` / chained → `None`.
    pub receiver: Option<String>,
    pub line: u32,
    pub tok: usize,
    /// Same liveness span as acquires: where a guard returned by this call
    /// (if the callee turns out to be guard-returning) would die.
    pub live_end: usize,
    /// True when the callee names a closure-typed parameter of the
    /// enclosing function — caller-supplied code.
    pub is_closure_param: bool,
}

/// Facts about one `fn` item.
#[derive(Clone, Debug)]
pub struct FnFact {
    pub name: String,
    pub line: u32,
    pub is_test: bool,
    /// `Deadline`-typed parameter names with a usage flag (does the ident
    /// appear anywhere in the body?). `_`-prefixed names are the explicit
    /// opt-out and are not recorded.
    pub deadline_params: Vec<(String, bool)>,
    /// True for bodyless trait-method declarations.
    pub has_body: bool,
    /// Lock identity + mode when the function hands its caller a guard
    /// (e.g. `self.state.read().unwrap_or_else(…)` as the tail).
    pub returns_guard: Option<(String, &'static str)>,
    pub acquires: Vec<Acquire>,
    pub calls: Vec<CallSite>,
}

/// A literal metric-name site: `.counter("serve.requests")` etc.
#[derive(Clone, Debug)]
pub struct MetricSite {
    /// `counter` | `gauge` | `histogram`.
    pub kind: &'static str,
    pub name: String,
    pub line: u32,
    pub is_test: bool,
}

/// Everything phase two needs to know about one file.
#[derive(Clone, Debug)]
pub struct FileFacts {
    pub path: String,
    /// `crates/serving/src/cache.rs` → `serving`; top-level `src/` → the
    /// root package name.
    pub crate_name: String,
    /// `cache.rs` → `cache`.
    pub file_stem: String,
    pub fns: Vec<FnFact>,
    pub metric_sites: Vec<MetricSite>,
    /// Well-formed `lint: allow` markers, for cross-file suppression.
    pub allow_markers: Vec<(u32, &'static str)>,
}

/// Keywords and call-shaped non-calls the call detector skips.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "move", "unsafe", "as", "in",
    "else", "impl", "pub", "use", "mod", "where", "ref", "mut", "dyn", "box", "await", "const",
    "static", "struct", "enum", "trait", "type", "crate", "super", "Some", "Ok", "Err", "None",
];

/// Extract per-function facts from one lexed file.
pub fn extract(ctx: &FileContext) -> FileFacts {
    let (crate_name, file_stem) = crate_and_stem(ctx.path);
    let mut fns = Vec::new();
    let n = ctx.code.len();
    let mut i = 0usize;
    while i < n {
        if ctx.code_text(i) == "fn" && ctx.code_kind(i + 1) == Some(TokenKind::Ident) {
            let after = parse_fn(ctx, i, &mut fns);
            i = after.max(i + 1);
        } else {
            i += 1;
        }
    }
    // Lock identities are recorded as bare receiver names during parsing;
    // qualify them with the owning crate so identity is workspace-global.
    for f in fns.iter_mut() {
        for a in f.acquires.iter_mut() {
            a.lock = format!("{crate_name}::{}", a.lock);
        }
        if let Some((lock, _)) = f.returns_guard.as_mut() {
            *lock = format!("{crate_name}::{lock}");
        }
    }
    let mut metric_sites = Vec::new();
    scan_metric_sites(ctx, &mut metric_sites);
    FileFacts {
        path: ctx.path.to_string(),
        crate_name,
        file_stem,
        fns,
        metric_sites,
        allow_markers: ctx.markers.iter().filter_map(|m| m.rule.map(|r| (m.line, r))).collect(),
    }
}

fn crate_and_stem(path: &str) -> (String, String) {
    let parts: Vec<&str> = path.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "zoomer".to_string()
    };
    let stem = parts.last().map(|f| f.trim_end_matches(".rs").to_string()).unwrap_or_default();
    (crate_name, stem)
}

/// Parse one `fn` starting at code index `at` (the `fn` keyword). Appends
/// the fact (and any nested fns) to `out` and returns the index just past
/// the item.
fn parse_fn(ctx: &FileContext, at: usize, out: &mut Vec<FnFact>) -> usize {
    let n = ctx.code.len();
    let name = ctx.code_text(at + 1).to_string();
    let line = ctx.code_line(at + 1);
    let mut j = at + 2;

    // Generic parameter list: balance `<`/`>`, counting the fused tokens
    // the lexer emits (`<<`, `>>`) and skipping comparisons/arrows.
    let mut closure_types: Vec<String> = Vec::new();
    if ctx.code_text(j) == "<" {
        let close = balance_angles(ctx, j);
        collect_closure_bounds(ctx, j + 1, close, &mut closure_types);
        j = close + 1;
    }
    if ctx.code_text(j) != "(" {
        return j; // not a fn item shape we understand
    }
    let params_open = j;
    let params_close = balance(ctx, j, "(", ")");
    let (deadline_params, mut closure_params) = parse_params(ctx, j + 1, params_close);

    // Return type / where clause: scan to the body `{` or a `;` (trait
    // method declaration, no body).
    j = params_close + 1;
    let mut body_open = None;
    while j < n {
        match ctx.code_text(j) {
            ";" => break,
            "{" => {
                body_open = Some(j);
                break;
            }
            "where" => {
                j = scan_where(ctx, j + 1, &mut closure_types);
                continue;
            }
            "<" => {
                j = balance_angles(ctx, j) + 1;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    let mut fact = FnFact {
        name,
        line,
        is_test: ctx.is_test_line(line),
        deadline_params,
        has_body: body_open.is_some(),
        returns_guard: None,
        acquires: Vec::new(),
        calls: Vec::new(),
    };
    let Some(open) = body_open else {
        out.push(fact);
        return j + 1;
    };
    // Params whose declared type is a generic bound by Fn* count as
    // closures too (`f: F` with `F: FnOnce(…)`).
    closure_params.extend(generic_typed_params(ctx, params_open, params_close, &closure_types));
    closure_params.sort();
    closure_params.dedup();

    let close = balance(ctx, open, "{", "}");
    parse_body(ctx, open, close, &closure_params, &mut fact, out);
    // Deadline usage: does the param ident appear anywhere in the body?
    for (pname, used) in fact.deadline_params.iter_mut() {
        let mut k = open + 1;
        while k < close {
            if ctx.code_kind(k) == Some(TokenKind::Ident) && ctx.code_text(k) == pname {
                *used = true;
                break;
            }
            k += 1;
        }
    }
    out.push(fact);
    close + 1
}

/// Balance a `(`/`)`-style pair starting at `open`; returns the index of
/// the matching closer (or the end of the stream when unbalanced).
fn balance(ctx: &FileContext, open: usize, l: &str, r: &str) -> usize {
    let n = ctx.code.len();
    let mut depth = 0i64;
    let mut j = open;
    while j < n {
        let t = ctx.code_text(j);
        if t == l {
            depth += 1;
        } else if t == r {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    n.saturating_sub(1)
}

/// Balance a generic-angle region starting at a `<` token. Handles the
/// lexer's fused `<<`/`>>` tokens; ignores `->`/`=>`/`<=`/`>=` (distinct
/// tokens). Bails out on tokens a generic list cannot contain, so `a < b`
/// comparisons never swallow the rest of the file.
fn balance_angles(ctx: &FileContext, open: usize) -> usize {
    let n = ctx.code.len();
    let mut depth = 0i64;
    let mut j = open;
    while j < n {
        match ctx.code_text(j) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return j;
                }
            }
            ";" | "{" | "}" => return j.saturating_sub(1).max(open),
            _ => {}
        }
        j += 1;
    }
    n.saturating_sub(1)
}

/// Collect generic names bound by `Fn`/`FnMut`/`FnOnce` inside a generic
/// list `[from, to)`: `F: FnOnce() -> R` → `F`.
fn collect_closure_bounds(ctx: &FileContext, from: usize, to: usize, out: &mut Vec<String>) {
    let mut k = from.max(1);
    while k < to {
        if ctx.code_text(k) == ":" && ctx.code_kind(k - 1) == Some(TokenKind::Ident) {
            let name = ctx.code_text(k - 1).to_string();
            let mut m = k + 1;
            while m < to && ctx.code_text(m) != "," {
                if matches!(ctx.code_text(m), "Fn" | "FnMut" | "FnOnce") {
                    out.push(name.clone());
                    break;
                }
                m += 1;
            }
            k = m;
        }
        k += 1;
    }
}

/// Scan a `where` clause (from just after the keyword) for closure bounds;
/// returns the index of the token that terminates the clause (`{` or `;`).
fn scan_where(ctx: &FileContext, from: usize, closure_types: &mut Vec<String>) -> usize {
    let n = ctx.code.len();
    let mut k = from.max(1);
    while k < n && ctx.code_text(k) != "{" && ctx.code_text(k) != ";" {
        if ctx.code_text(k) == ":" && ctx.code_kind(k - 1) == Some(TokenKind::Ident) {
            let name = ctx.code_text(k - 1).to_string();
            let mut m = k + 1;
            while m < n && !matches!(ctx.code_text(m), "," | "{" | ";") {
                if matches!(ctx.code_text(m), "Fn" | "FnMut" | "FnOnce") {
                    closure_types.push(name.clone());
                    break;
                }
                m += 1;
            }
            k = m;
            continue;
        }
        k += 1;
    }
    k
}

/// Parse the parameter list `[from, to)`. Returns (deadline params with
/// usage flags, closure-typed param names).
fn parse_params(ctx: &FileContext, from: usize, to: usize) -> (Vec<(String, bool)>, Vec<String>) {
    let mut deadline = Vec::new();
    let mut closures = Vec::new();
    for (name, ty_from, ty_to) in split_params(ctx, from, to) {
        let mut is_deadline = false;
        let mut is_closure = false;
        let mut k = ty_from;
        while k < ty_to {
            match ctx.code_text(k) {
                "Deadline" => is_deadline = true,
                "Fn" | "FnMut" | "FnOnce" => is_closure = true,
                _ => {}
            }
            k += 1;
        }
        if is_deadline && !name.starts_with('_') {
            deadline.push((name.clone(), false));
        }
        if is_closure {
            closures.push(name);
        }
    }
    (deadline, closures)
}

/// Split a parameter list into `(name, type_start, type_end)` entries at
/// top-level commas.
fn split_params(ctx: &FileContext, from: usize, to: usize) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut entry_start = from;
    let mut k = from;
    let mut paren = 0i64;
    while k <= to {
        let t = if k < to { ctx.code_text(k) } else { "," };
        match t {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "<" if k < to => k = balance_angles(ctx, k),
            "," if paren <= 0 => {
                if let Some(entry) = parse_one_param(ctx, entry_start, k) {
                    out.push(entry);
                }
                entry_start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    out
}

fn parse_one_param(ctx: &FileContext, from: usize, to: usize) -> Option<(String, usize, usize)> {
    // `[mut] name : Type` (skip `self` receivers and pattern params).
    let mut k = from;
    while k < to && ctx.code_text(k) == "mut" {
        k += 1;
    }
    if ctx.code_kind(k) != Some(TokenKind::Ident) || ctx.code_text(k + 1) != ":" {
        return None;
    }
    let name = ctx.code_text(k);
    if name == "self" {
        return None;
    }
    Some((name.to_string(), k + 2, to))
}

/// Param names whose declared type mentions one of the closure-bound
/// generic names.
fn generic_typed_params(
    ctx: &FileContext,
    params_open: usize,
    params_close: usize,
    closure_types: &[String],
) -> Vec<String> {
    if closure_types.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (name, ty_from, ty_to) in split_params(ctx, params_open + 1, params_close) {
        let mut k = ty_from;
        while k < ty_to {
            let t = ctx.code_text(k);
            if closure_types.iter().any(|c| c == t) {
                out.push(name.clone());
                break;
            }
            k += 1;
        }
    }
    out
}

/// A pending event inside a statement: an acquire or a call, waiting for
/// its liveness span to be determined.
#[derive(Clone, Copy)]
enum Event {
    Acquire(usize),
    Call(usize),
}

struct Frame {
    /// Paren/bracket depth inside this block (for `;` significance).
    paren: i64,
    /// Code index where the current statement began.
    stmt_start: usize,
    /// Events opened in the current statement.
    stmt_events: Vec<Event>,
    /// Let-bound events that live to block close (or an earlier `drop`).
    block_events: Vec<Event>,
}

/// Walk a fn body `(open, close)`, recording acquires and calls with
/// liveness spans. Nested `fn` items are parsed recursively into `nested`.
fn parse_body(
    ctx: &FileContext,
    open: usize,
    close: usize,
    closure_params: &[String],
    fact: &mut FnFact,
    nested: &mut Vec<FnFact>,
) {
    let mut frames: Vec<Frame> = vec![Frame {
        paren: 0,
        stmt_start: open + 1,
        stmt_events: Vec::new(),
        block_events: Vec::new(),
    }];
    let mut j = open + 1;
    while j < close {
        let t = ctx.code_text(j);
        match t {
            "fn" if ctx.code_kind(j + 1) == Some(TokenKind::Ident) => {
                let after = parse_fn(ctx, j, nested);
                j = after.max(j + 1);
                continue;
            }
            "{" => {
                // A `{` ends the enclosing frame's current statement: a
                // lock in an `if`/`while` condition is a temporary, while
                // `let g = match x.lock() { … }` keeps its binding.
                if let Some(frame) = frames.last_mut() {
                    end_statement(ctx, frame, j, fact);
                }
                frames.push(Frame {
                    paren: 0,
                    stmt_start: j + 1,
                    stmt_events: Vec::new(),
                    block_events: Vec::new(),
                });
            }
            "}" => {
                if let Some(frame) = frames.pop() {
                    let is_fn_frame = frames.is_empty();
                    finish_block(ctx, frame, j, is_fn_frame, fact);
                }
                match frames.last_mut() {
                    Some(f) => f.stmt_start = j + 1,
                    // Defensive: unbalanced body — stop rather than walk on.
                    None => return,
                }
            }
            "(" | "[" => {
                if let Some(f) = frames.last_mut() {
                    f.paren += 1;
                }
            }
            ")" | "]" => {
                if let Some(f) = frames.last_mut() {
                    f.paren -= 1;
                }
            }
            ";" => {
                let at_stmt_level = frames.last().map(|f| f.paren <= 0).unwrap_or(false);
                if at_stmt_level {
                    if let Some(frame) = frames.last_mut() {
                        end_statement(ctx, frame, j, fact);
                        frame.stmt_start = j + 1;
                    }
                }
            }
            "lock" | "read" | "write" if is_acquire_shape(ctx, j) => {
                if let Some(recv) = receiver_of(ctx, j) {
                    let mode = match t {
                        "read" => "read",
                        "write" => "write",
                        _ => "lock",
                    };
                    fact.acquires.push(Acquire {
                        lock: recv,
                        mode,
                        line: ctx.code_line(j),
                        tok: j,
                        live_end: close,
                        binding: None,
                    });
                    if let Some(f) = frames.last_mut() {
                        f.stmt_events.push(Event::Acquire(fact.acquires.len() - 1));
                    }
                }
                j += 3; // skip `( )`
                continue;
            }
            // `drop(binding)` kills a live guard early.
            "drop"
                if ctx.code_text(j + 1) == "("
                    && ctx.code_kind(j + 2) == Some(TokenKind::Ident)
                    && ctx.code_text(j + 3) == ")" =>
            {
                let b = ctx.code_text(j + 2).to_string();
                shorten_binding(&mut frames, fact, &b, j);
                j += 4;
                continue;
            }
            _ => {}
        }
        // Call detection: Ident followed by `(`, not a keyword, not a
        // macro (`ident!(…)` has a `!` between), not a definition.
        if ctx.code_kind(j) == Some(TokenKind::Ident)
            && ctx.code_text(j + 1) == "("
            && !NON_CALLEES.contains(&t)
            && !matches!(t, "lock" | "read" | "write" | "drop")
            && (j == 0 || ctx.code_text(j - 1) != "fn")
        {
            let receiver = call_receiver(ctx, j);
            let is_closure_param = receiver.is_none() && closure_params.iter().any(|c| c == t);
            fact.calls.push(CallSite {
                callee: t.to_string(),
                receiver,
                line: ctx.code_line(j),
                tok: j,
                live_end: close,
                is_closure_param,
            });
            if let Some(f) = frames.last_mut() {
                f.stmt_events.push(Event::Call(fact.calls.len() - 1));
            }
        }
        j += 1;
    }
    // Unbalanced input ran out before the closing brace: finalize whatever
    // frames remain so every span is bounded.
    while let Some(frame) = frames.pop() {
        let is_fn_frame = frames.is_empty();
        finish_block(ctx, frame, close, is_fn_frame, fact);
    }
}

/// Current statement ended at `end_tok` (a `;` or an opening `{`): bind
/// its events to the block or expire them. A `return <acquire>` statement
/// marks the function guard-returning.
fn end_statement(ctx: &FileContext, frame: &mut Frame, end_tok: usize, fact: &mut FnFact) {
    let is_return = ctx.code_text(frame.stmt_start) == "return";
    let binding = statement_binding(ctx, frame.stmt_start);
    for ev in frame.stmt_events.drain(..) {
        if is_return {
            mark_guard_escape(fact, ev);
        }
        match binding {
            Some(ref b) if *b != "_" => {
                if let Event::Acquire(i) = ev {
                    if let Some(a) = fact.acquires.get_mut(i) {
                        a.binding = Some(b.clone());
                    }
                }
                frame.block_events.push(ev);
            }
            _ => set_live_end(fact, ev, end_tok),
        }
    }
}

/// Block closed at `}` (index `brace`): expire remaining events. A pending
/// tail-expression acquire in the fn's own frame marks `returns_guard`.
fn finish_block(
    ctx: &FileContext,
    frame: Frame,
    brace: usize,
    is_fn_frame: bool,
    fact: &mut FnFact,
) {
    let _ = ctx;
    for ev in frame.stmt_events {
        if is_fn_frame {
            mark_guard_escape(fact, ev);
        }
        set_live_end(fact, ev, brace);
    }
    for ev in frame.block_events {
        set_live_end(fact, ev, brace);
    }
}

/// An acquire escaping the function (tail expression or `return`): the
/// function hands its caller a live guard.
fn mark_guard_escape(fact: &mut FnFact, ev: Event) {
    if let Event::Acquire(i) = ev {
        if let Some(a) = fact.acquires.get(i) {
            fact.returns_guard = Some((a.lock.clone(), a.mode));
        }
    }
}

fn set_live_end(fact: &mut FnFact, ev: Event, end: usize) {
    match ev {
        Event::Acquire(i) => {
            if let Some(a) = fact.acquires.get_mut(i) {
                if a.live_end > end {
                    a.live_end = end;
                }
            }
        }
        Event::Call(i) => {
            if let Some(c) = fact.calls.get_mut(i) {
                if c.live_end > end {
                    c.live_end = end;
                }
            }
        }
    }
}

/// `drop(b)` at token `at`: shorten the liveness of the innermost live
/// acquire bound to `b`.
fn shorten_binding(frames: &mut [Frame], fact: &mut FnFact, b: &str, at: usize) {
    for frame in frames.iter_mut().rev() {
        for ev in frame.block_events.iter() {
            if let Event::Acquire(i) = *ev {
                if fact.acquires.get(i).and_then(|a| a.binding.as_deref()) == Some(b) {
                    if let Some(a) = fact.acquires.get_mut(i) {
                        a.live_end = at;
                    }
                    return;
                }
            }
        }
    }
}

/// Does the statement starting at `stmt_start` open with `let [mut] x =`?
fn statement_binding(ctx: &FileContext, stmt_start: usize) -> Option<String> {
    if ctx.code_text(stmt_start) != "let" {
        return None;
    }
    let mut k = stmt_start + 1;
    while ctx.code_text(k) == "mut" {
        k += 1;
    }
    if ctx.code_kind(k) == Some(TokenKind::Ident) && ctx.code_text(k + 1) == "=" {
        return Some(ctx.code_text(k).to_string());
    }
    None
}

/// `.lock()` / `.read()` / `.write()` with zero args.
fn is_acquire_shape(ctx: &FileContext, i: usize) -> bool {
    i > 0
        && ctx.code_text(i - 1) == "."
        && ctx.code_text(i + 1) == "("
        && ctx.code_text(i + 2) == ")"
}

/// Walk the receiver chain backwards from `x.y[z].lock()`'s acquire ident
/// to the nearest field/variable name (skipping balanced `[…]`/`(…)` and
/// `self`). Returns `None` when the chain starts from an expression we
/// cannot name.
fn receiver_of(ctx: &FileContext, acquire: usize) -> Option<String> {
    let mut j = acquire.checked_sub(2)?;
    loop {
        match ctx.code_text(j) {
            ")" | "]" => {
                let closer = ctx.code_text(j);
                let opener = if closer == ")" { "(" } else { "[" };
                let mut depth = 0i64;
                loop {
                    let t = ctx.code_text(j);
                    if t == closer {
                        depth += 1;
                    } else if t == opener {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            }
            "." | "::" | "?" | "self" => j = j.checked_sub(1)?,
            _ => {
                if ctx.code_kind(j) == Some(TokenKind::Ident) {
                    return Some(ctx.code_text(j).to_string());
                }
                return None;
            }
        }
    }
}

/// Immediate receiver of a call at `tok`: `self.f()` → `self`,
/// `cache.f()` → `cache`, `mod::f()` → `mod`, otherwise `None`.
fn call_receiver(ctx: &FileContext, tok: usize) -> Option<String> {
    let sep = tok.checked_sub(1)?;
    let prev = tok.checked_sub(2)?;
    match ctx.code_text(sep) {
        "." | "::" => {
            let t = ctx.code_text(prev);
            if ctx.code_kind(prev) == Some(TokenKind::Ident) || t == "self" {
                Some(t.to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Literal metric-name sites: `.counter("…")`, `.gauge("…")`,
/// `.histogram("…")`, and the `ingest_cache("prefix", …)` helper which
/// registers `{prefix}.{hits,misses,evictions}` counters.
///
/// `format!`-built names with a literal template — e.g.
/// `.counter(&format!("serve.shard.{idx}.batches"))` — are normalized to
/// glob sites (`serve.shard.*.batches`) so the manifest can cover dynamic
/// per-shard metric families with one `*` entry. Only truly dynamic names
/// (a plain variable, a non-literal template) stay out of L008's scope.
fn scan_metric_sites(ctx: &FileContext, out: &mut Vec<MetricSite>) {
    for i in 0..ctx.code.len() {
        if ctx.code_kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let t = ctx.code_text(i);
        let kind = match t {
            "counter" => "counter",
            "gauge" => "gauge",
            "histogram" => "histogram",
            "ingest_cache" => "counter",
            _ => continue,
        };
        if t != "ingest_cache" && (i == 0 || ctx.code_text(i - 1) != ".") {
            continue;
        }
        if ctx.code_text(i + 1) != "(" {
            continue;
        }
        let name = if ctx.code_kind(i + 2) == Some(TokenKind::Str) {
            let Some(name) = str_literal_value(ctx.code_text(i + 2)) else { continue };
            name
        } else if let Some(glob) = format_glob_name(ctx, i + 2) {
            glob
        } else {
            continue; // dynamic name — out of scope for L008
        };
        let line = ctx.code_line(i);
        let is_test = ctx.is_test_line(line);
        if t == "ingest_cache" {
            for suffix in ["hits", "misses", "evictions"] {
                out.push(MetricSite { kind, name: format!("{name}.{suffix}"), line, is_test });
            }
        } else {
            out.push(MetricSite { kind, name, line, is_test });
        }
    }
}

/// Recognize `&format!("…{…}…")` / `format!("…{…}…")` starting at code
/// token `j` and return the template with every `{…}` interpolation
/// replaced by `*` (escaped `{{` / `}}` become literal braces).
fn format_glob_name(ctx: &FileContext, mut j: usize) -> Option<String> {
    if ctx.code_text(j) == "&" {
        j += 1;
    }
    if ctx.code_text(j) != "format" || ctx.code_text(j + 1) != "!" || ctx.code_text(j + 2) != "(" {
        return None;
    }
    if ctx.code_kind(j + 3) != Some(TokenKind::Str) {
        return None;
    }
    let template = str_literal_value(ctx.code_text(j + 3))?;
    let mut glob = String::with_capacity(template.len());
    let mut chars = template.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                glob.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                glob.push('}');
            }
            '{' => {
                // Interpolation: skip to the matching close brace.
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(_) => {}
                        None => return None, // unbalanced — not a template
                    }
                }
                glob.push('*');
            }
            '}' => return None, // stray close brace — not a template
            c => glob.push(c),
        }
    }
    Some(glob)
}

/// Unquote a string-literal token's text (handles `"…"` and `r"…"` /
/// `r#"…"#`). Returns `None` for literals with escapes we don't interpret.
fn str_literal_value(raw: &str) -> Option<String> {
    let inner = if let Some(rest) = raw.strip_prefix('r') {
        let hashes = rest.chars().take_while(|&c| c == '#').count();
        let rest = &rest[hashes..];
        rest.strip_prefix('"')?.strip_suffix(&format!("\"{}", "#".repeat(hashes)))?
    } else {
        raw.strip_prefix('"')?.strip_suffix('"')?
    };
    if inner.contains('\\') {
        return None;
    }
    Some(inner.to_string())
}
