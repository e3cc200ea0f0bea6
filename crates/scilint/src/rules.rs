//! The rule set: D (determinism), N (numeric safety), H (hygiene),
//! C (copy discipline).
//!
//! Every rule is a token-level check over one [`SourceFile`], except H002
//! which is a workspace-level check (it needs the test files). Rules fire
//! only on library code outside `#[cfg(test)]` regions; which rules apply
//! to which crate is decided by [`crate::profiles`]. D001–D003, C001 and
//! H001 flag the tokens [`crate::sinks::classify`] names, the grammar the
//! interprocedural passes seed from.

use crate::lex::{Token, TokenKind};
use crate::sinks::{self, SinkKind};
use crate::source::{FileKind, SourceFile};
use crate::symbols::is_pub_before;

/// Rule family, for grouping in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// D-rules: sources of run-to-run or engine-to-engine nondeterminism.
    Determinism,
    /// N-rules: numeric-safety hazards.
    Numeric,
    /// H-rules: hygiene contracts.
    Hygiene,
    /// C-rules: copy discipline on the zero-copy data plane.
    CopyDiscipline,
    /// F-rules: interprocedural effect reachability (sciflow).
    Flow,
    /// S-rules: the suppression grammar itself.
    Suppression,
}

impl Family {
    /// Lower-case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::Numeric => "numeric",
            Family::Hygiene => "hygiene",
            Family::CopyDiscipline => "copy-discipline",
            Family::Flow => "flow",
            Family::Suppression => "suppression",
        }
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier (`D001`, ...).
    pub id: &'static str,
    /// Family the rule belongs to.
    pub family: Family,
    /// One-line rationale shown by `scilint --list-rules`.
    pub description: &'static str,
}

/// Every shipped rule, in report order. S-rules are generated by the
/// suppression parser and cannot themselves be suppressed. F-rules are
/// generated by the interprocedural pass in [`crate::flow`], not by
/// [`check_file`].
pub const RULES: [Rule; 18] = [
    Rule {
        id: "D001",
        family: Family::Determinism,
        description: "HashMap/HashSet in library code: iteration order is seed-dependent and can \
                      leak into results; use BTreeMap/BTreeSet or sorted iteration",
    },
    Rule {
        id: "D002",
        family: Family::Determinism,
        description: "wall-clock reads (Instant/SystemTime) in kernel or engine library code: \
                      results must not depend on time",
    },
    Rule {
        id: "D003",
        family: Family::Determinism,
        description: "ambient randomness (thread_rng/from_entropy/RandomState/rand::) in library \
                      code: all stochastic inputs must be explicitly seeded",
    },
    Rule {
        id: "D004",
        family: Family::Determinism,
        description: "raw std::thread use inside a *_par kernel, or a spawn in parexec outside \
                      the MorselPool internals: morsel.rs is the single sanctioned thread-spawn \
                      site; everything else goes through the pool's ordered primitives",
    },
    Rule {
        id: "N001",
        family: Family::Numeric,
        description: "== or != against a float literal: exact float comparison is almost always a \
                      bug; compare with a tolerance or justify the exact-zero sentinel",
    },
    Rule {
        id: "N002",
        family: Family::Numeric,
        description: "lossy `as` cast (f32/i8..i32/u8..u32) in kernel code: silently truncates or \
                      rounds; widen, use TryFrom, or justify the narrowing",
    },
    Rule {
        id: "N003",
        family: Family::Numeric,
        description: "f32 accumulator (sum::<f32> or `let mut x: f32`): long sums must accumulate \
                      in f64",
    },
    Rule {
        id: "H001",
        family: Family::Hygiene,
        description: "unwrap() in non-test library code: use Result or expect() with an \
                      actionable message",
    },
    Rule {
        id: "H002",
        family: Family::Hygiene,
        description: "every pub *_par kernel needs a serial twin (same name minus _par) and a \
                      bit-identity test referencing the _par entry point",
    },
    Rule {
        id: "C001",
        family: Family::CopyDiscipline,
        description: "clone()/to_vec() on a chunk payload in engine code: on the shared data \
                      plane payload handles are refcount bumps; a real deep copy must go through \
                      materialize()/deep_copy() or a codec encode()/decode() boundary with a \
                      reason, or carry a justified allow",
    },
    Rule {
        id: "C002",
        family: Family::CopyDiscipline,
        description: "raw file I/O (File/OpenOptions/fs::) in data-plane library code: \
                      marray/src/spill.rs is the single sanctioned spill-I/O site, so every byte \
                      of disk traffic on the data plane rides the governor's metered spill tier",
    },
    Rule {
        id: "F001",
        family: Family::Flow,
        description: "panic sink (panic!/unwrap()/expect()/unreachable!) reachable from an \
                      engine/kernel/pipeline entry point: a result path must propagate Result, \
                      not abort; the finding carries the shortest witness call chain",
    },
    Rule {
        id: "F002",
        family: Family::Flow,
        description: "transitive nondeterminism: hash-order iteration, a clock read, or ambient \
                      randomness reachable from an engine entry point through any call chain",
    },
    Rule {
        id: "F003",
        family: Family::Flow,
        description: "transitive unsanctioned payload copy (interprocedural C001): a helper that \
                      deep-copies chunk data is reachable from an engine entry point outside \
                      materialize() or a codec encode()/decode() boundary",
    },
    Rule {
        id: "F004",
        family: Family::Flow,
        description: "thread spawn reachable from an engine entry point outside \
                      parexec/src/morsel.rs, the workspace's single sanctioned spawn site",
    },
    Rule {
        id: "S001",
        family: Family::Suppression,
        description: "scilint allow without a reason: every suppression must say why",
    },
    Rule {
        id: "S002",
        family: Family::Suppression,
        description: "scilint allow naming an unknown rule id",
    },
    Rule {
        id: "S003",
        family: Family::Suppression,
        description: "scilint allow that matched no finding: stale suppressions must be removed",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One violation, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// 1-based line.
    pub line: u32,
    /// Specific message.
    pub message: String,
}

const N002_NARROW: [&str; 7] = ["f32", "i8", "i16", "i32", "u8", "u16", "u32"];

/// Run all single-file rules in `enabled` over `file`, appending findings.
pub fn check_file(file: &SourceFile, enabled: &[&str], out: &mut Vec<Finding>) {
    if file.kind != FileKind::Library {
        return;
    }
    let on = |id: &str| enabled.contains(&id);
    let toks = &file.tokens;
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Finding {
            rule,
            path: file.path.clone(),
            crate_name: file.crate_name.clone(),
            line,
            message,
        });
    };

    for (i, t) in toks.iter().enumerate() {
        if file.is_test_code(i) {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(s) => {
                let sink = sinks::classify(file, i);
                if on("D001") && sink == Some(SinkKind::HashOrder) {
                    push(
                        "D001",
                        t.line,
                        format!("{s} in library code: iteration order depends on the hash seed"),
                    );
                }
                if on("D002") && sink == Some(SinkKind::Clock) {
                    push(
                        "D002",
                        t.line,
                        format!("{s} in library code: results must not read the clock"),
                    );
                }
                if on("D003") && sink == Some(SinkKind::Randomness) {
                    push(
                        "D003",
                        t.line,
                        format!("{s}: ambient randomness; seed explicitly instead"),
                    );
                }
                if on("D004") {
                    let threadish = s == "spawn"
                        || (s == "thread"
                            && (toks.get(i + 1).is_some_and(|n| n.kind.is_punct("::"))
                                || (i > 0 && toks[i - 1].kind.is_punct("::"))));
                    if threadish && file.fn_name_at(i).is_some_and(|f| f.ends_with("_par")) {
                        let func = file.fn_name_at(i).unwrap_or("?").to_string();
                        push(
                            "D004",
                            t.line,
                            format!(
                                "raw thread use inside `{func}`: _par kernels must use parexec's \
                                 ordered primitives"
                            ),
                        );
                    } else if s == "spawn"
                        && file.crate_name == "parexec"
                        && !file.path.ends_with("morsel.rs")
                    {
                        // Crate-wide inside parexec: only the MorselPool
                        // internals may talk to std::thread (reads of
                        // available_parallelism etc. stay legal elsewhere).
                        push(
                            "D004",
                            t.line,
                            "spawn outside the MorselPool internals: morsel.rs is parexec's \
                             single sanctioned thread-spawn site"
                                .to_string(),
                        );
                    }
                }
                if on("N002")
                    && s == "as"
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind.ident().is_some_and(|ty| N002_NARROW.contains(&ty)))
                {
                    let ty = toks[i + 1].kind.ident().unwrap_or("?");
                    push(
                        "N002",
                        t.line,
                        format!("lossy cast `as {ty}` in kernel code"),
                    );
                }
                if on("N003")
                    && s == "sum"
                    && toks.get(i + 1).is_some_and(|n| n.kind.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.kind.is_punct("<"))
                    && toks
                        .get(i + 3)
                        .is_some_and(|n| n.kind.ident() == Some("f32"))
                {
                    push(
                        "N003",
                        t.line,
                        "sum::<f32>(): accumulate long sums in f64".to_string(),
                    );
                }
                if on("N003")
                    && s == "f32"
                    && i >= 4
                    && toks[i - 1].kind.is_punct(":")
                    && toks[i - 3].kind.ident() == Some("mut")
                    && toks[i - 4].kind.ident() == Some("let")
                    && toks.get(i + 1).is_some_and(|n| n.kind.is_punct("="))
                {
                    push(
                        "N003",
                        t.line,
                        "mutable f32 binding used as an accumulator: use f64".to_string(),
                    );
                }
                if on("C001") && sink == Some(SinkKind::PayloadCopy) {
                    push(
                        "C001",
                        t.line,
                        format!(
                            "`.{s}()` on a chunk payload: deep copies must go through \
                             materialize()/deep_copy() with a reason, or justify the copy"
                        ),
                    );
                }
                if on("C002") {
                    let io_type = s == "File" || s == "OpenOptions";
                    let fs_path = s == "fs"
                        && (toks.get(i + 1).is_some_and(|n| n.kind.is_punct("::"))
                            || (i > 0 && toks[i - 1].kind.is_punct("::")));
                    if (io_type || fs_path) && !file.path.ends_with("marray/src/spill.rs") {
                        push(
                            "C002",
                            t.line,
                            format!(
                                "`{s}` file I/O in data-plane library code: marray/src/spill.rs \
                                 is the single sanctioned spill-I/O site"
                            ),
                        );
                    }
                }
                if on("H001") && sink == Some(SinkKind::Unwrap) {
                    push(
                        "H001",
                        t.line,
                        "unwrap() in library code: return a Result or expect() with an \
                         actionable message"
                            .to_string(),
                    );
                }
            }
            TokenKind::Punct(p) if (*p == "==" || *p == "!=") && on("N001") => {
                let float_nb =
                    |j: Option<&Token>| matches!(j.map(|t| &t.kind), Some(TokenKind::Float { .. }));
                if float_nb(i.checked_sub(1).and_then(|j| toks.get(j))) || float_nb(toks.get(i + 1))
                {
                    push(
                        "N001",
                        t.line,
                        format!("`{p}` against a float literal: exact float comparison"),
                    );
                }
            }
            TokenKind::Float { suffix: Some(sfx) }
                if sfx == "f32"
                    && on("N003")
                    && i > 0
                    && toks[i - 1].kind.is_punct("=")
                    && i >= 2
                    && !toks[i - 2].kind.is_punct("=") =>
            {
                push(
                    "N003",
                    t.line,
                    "f32 literal initializing an accumulator: use f64".to_string(),
                );
            }
            _ => {}
        }
    }
}

/// Workspace-level H002: every `pub fn NAME_par` in a kernel crate's library
/// code must have a serial twin `NAME` in the same crate and a test file
/// referencing the `_par` entry point.
pub fn check_par_twins(files: &[SourceFile], kernel_crates: &[&str], out: &mut Vec<Finding>) {
    for krate in kernel_crates {
        let libs: Vec<&SourceFile> = files
            .iter()
            .filter(|f| f.crate_name == *krate && f.kind == FileKind::Library)
            .collect();
        let tests: Vec<&SourceFile> = files.iter().filter(|f| f.kind == FileKind::Test).collect();

        // All function definitions in the crate's library code.
        let mut defs: Vec<(&str, &str, u32, bool)> = Vec::new(); // (name, path, line, is_pub)
        for f in &libs {
            for &at in &f.fn_defs {
                if f.is_test_code(at) {
                    continue;
                }
                let name = f.tokens[at + 1].kind.ident().unwrap_or_default();
                defs.push((name, &f.path, f.tokens[at].line, is_pub_before(f, at)));
            }
        }

        for &(name, path, line, is_pub) in &defs {
            if !is_pub || !name.ends_with("_par") {
                continue;
            }
            let twin = &name[..name.len() - "_par".len()];
            if !defs.iter().any(|&(n, ..)| n == twin) {
                out.push(Finding {
                    rule: "H002",
                    path: path.to_string(),
                    crate_name: (*krate).to_string(),
                    line,
                    message: format!("`{name}` has no serial twin `{twin}` in crate `{krate}`"),
                });
            }
            let referenced = tests
                .iter()
                .any(|f| f.tokens.iter().any(|t| t.kind.ident() == Some(name)));
            if !referenced {
                out.push(Finding {
                    rule: "H002",
                    path: path.to_string(),
                    crate_name: (*krate).to_string(),
                    line,
                    message: format!(
                        "`{name}` is not referenced by any test: add a bit-identity test \
                         comparing it against `{twin}` (or Parallelism::Serial)"
                    ),
                });
            }
        }
    }
}
