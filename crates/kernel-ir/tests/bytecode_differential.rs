//! Differential tests: the fused bytecode fast path against the AST
//! walker reference.
//!
//! `run_kernel_range` compiles kernel bodies to peephole-fused bytecode;
//! `run_kernel_range_ast` keeps the original tree walk. The timing model
//! prices launches from the `OpCounters` these produce, so the two paths
//! must agree on *everything* observable — buffer bytes, dirty bits,
//! miss records, reduction partials, counters, per-buffer byte tallies,
//! the sanitizer log and hit count, and the exact `ExecError` on failure
//! — or simulated results would silently drift.

use acc_kernel_ir::{
    run_kernel_range, run_kernel_range_ast, BinOp, BufAccess, BufId, BufParam, BufSanitize,
    Buffer, BufSlot, Builtin, DirtyMap, ExecCtx, ExecError, Expr, Kernel, LocalId, MissRecord,
    OpCounters, ParamId, RmwOp, SanitizeRecord, ScalarParam, ScalarReduction, Stmt, Ty, UnOp,
    Value, SANITIZE_LOG_CAP,
};
use proptest::prelude::*;

/// Everything observable after a launch, for equality assertions.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), ExecError>,
    bufs: Vec<Vec<u8>>,
    dirty_bits: Vec<Option<Vec<bool>>>,
    counters: OpCounters,
    per_buf_bytes: Vec<(u64, u64)>,
    misses: Vec<MissRecord>,
    reductions: Vec<Value>,
    sanitize_log: Vec<SanitizeRecord>,
    sanitize_hits: u64,
}

/// Per-buffer launch binding: the resident window and owned range.
#[derive(Debug, Clone, Copy)]
struct Binding {
    window_lo: i64,
    own: (i64, i64),
    dirty: bool,
}

impl Binding {
    fn whole(n: usize) -> Binding {
        Binding {
            window_lo: 0,
            own: (0, n as i64),
            dirty: false,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    k: &Kernel,
    params: &[Value],
    init: &[Buffer],
    bindings: &[Binding],
    sanitize: &[BufSanitize],
    miss_capacity: usize,
    lo: i64,
    hi: i64,
    ast: bool,
) -> Outcome {
    let mut bufs: Vec<Buffer> = init.to_vec();
    let mut dirty: Vec<Option<DirtyMap>> = bufs
        .iter()
        .zip(bindings)
        .map(|(b, bind)| {
            bind.dirty
                .then(|| DirtyMap::new(b.len(), b.ty().size_bytes(), 64))
        })
        .collect();
    let slots: Vec<BufSlot<'_>> = bufs
        .iter_mut()
        .zip(dirty.iter_mut())
        .zip(bindings)
        .map(|((data, dm), bind)| BufSlot {
            data,
            window_lo: bind.window_lo,
            own: bind.own,
            dirty: dm.as_mut(),
        })
        .collect();
    let mut ctx = ExecCtx::new(k, params.to_vec(), slots);
    ctx.miss_capacity = miss_capacity;
    ctx.sanitize = sanitize.to_vec();
    let result = if ast {
        run_kernel_range_ast(k, &mut ctx, lo, hi)
    } else {
        run_kernel_range(k, &mut ctx, lo, hi)
    };
    let counters = ctx.counters;
    let per_buf_bytes = ctx.per_buf_bytes.clone();
    let misses = ctx.miss_buf.clone();
    let reductions = ctx.reduction_partials.clone();
    let sanitize_log = std::mem::take(&mut ctx.sanitize_log);
    let sanitize_hits = ctx.sanitize_hits;
    drop(ctx);
    Outcome {
        result,
        bufs: bufs.iter().map(|b| b.bytes().to_vec()).collect(),
        dirty_bits: dirty
            .iter()
            .map(|dm| dm.as_ref().map(|d| (0..d.len()).map(|i| d.is_dirty(i)).collect()))
            .collect(),
        counters,
        per_buf_bytes,
        misses,
        reductions,
        sanitize_log,
        sanitize_hits,
    }
}

#[allow(clippy::too_many_arguments)]
fn assert_paths_agree(
    k: &Kernel,
    params: &[Value],
    init: &[Buffer],
    bindings: &[Binding],
    sanitize: &[BufSanitize],
    miss_capacity: usize,
    lo: i64,
    hi: i64,
) -> Outcome {
    let walker = run_one(k, params, init, bindings, sanitize, miss_capacity, lo, hi, true);
    let bytecode = run_one(k, params, init, bindings, sanitize, miss_capacity, lo, hi, false);
    assert_eq!(walker, bytecode, "bytecode diverged from walker on `{}`", k.name);
    bytecode
}

fn i32_param(name: &str) -> ScalarParam {
    ScalarParam {
        name: name.into(),
        ty: Ty::I32,
    }
}

fn buf(name: &str, ty: Ty, access: BufAccess) -> BufParam {
    BufParam {
        name: name.into(),
        ty,
        access,
    }
}

fn local(i: u32) -> Expr {
    Expr::Local(LocalId(i))
}
fn param(i: u32) -> Expr {
    Expr::Param(ParamId(i))
}
fn imm(v: i32) -> Expr {
    Expr::imm_i32(v)
}

/// The BFS edge-scan shape: the exact statement pattern the fused
/// `Param3ToLocal` / `LoadTidToLocal` / `LoadLocalBinLocalBr` hot path
/// is built for, including a dirty store and a scalar reduction.
fn bfs_like_kernel() -> Kernel {
    Kernel {
        name: "bfs_like".into(),
        params: vec![i32_param("level"), i32_param("n"), i32_param("pad")],
        bufs: vec![
            buf("src", Ty::I32, BufAccess::Read),
            buf("dst", Ty::I32, BufAccess::Read),
            buf("levels", Ty::I32, BufAccess::ReadWrite),
        ],
        locals: vec![Ty::I32, Ty::I32, Ty::I32],
        reductions: vec![ScalarReduction {
            var: "changed".into(),
            ty: Ty::I32,
            op: RmwOp::Add,
        }],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: param(0),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: param(1),
            },
            Stmt::Assign {
                local: LocalId(2),
                value: param(2),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            Stmt::If {
                cond: Expr::bin(BinOp::Eq, Expr::load(BufId(2), local(1)), local(0)),
                then_: vec![
                    Stmt::Assign {
                        local: LocalId(2),
                        value: Expr::load(BufId(1), Expr::ThreadIdx),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Lt, Expr::load(BufId(2), local(2)), Expr::imm_i32(0)),
                        then_: vec![
                            Stmt::Store {
                                buf: BufId(2),
                                idx: local(2),
                                value: Expr::add(local(0), Expr::imm_i32(1)),
                                dirty: true,
                                checked: false,
                            },
                            Stmt::ReduceScalar {
                                slot: 0,
                                op: RmwOp::Add,
                                value: Expr::imm_i32(1),
                            },
                        ],
                        else_: vec![],
                    },
                ],
                else_: vec![],
            },
        ],
    }
}

/// A kernel touching every remaining construct: while/break/continue,
/// ternary select, short-circuit logic, casts, builtin calls, division,
/// unary ops, atomic RMW, and checked (write-miss) stores.
fn kitchen_sink_kernel() -> Kernel {
    Kernel {
        name: "kitchen_sink".into(),
        params: vec![i32_param("limit"), i32_param("divisor")],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
            buf("acc", Ty::F64, BufAccess::Reduction(RmwOp::Add)),
        ],
        locals: vec![Ty::I32, Ty::I32],
        reductions: vec![],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::imm_i32(0),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::load(BufId(0), Expr::ThreadIdx),
            },
            // while (l0 < limit) { l0++; if (l0 == 2) continue; if (l0 > 5) break; }
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, local(0), param(0)),
                body: vec![
                    Stmt::Assign {
                        local: LocalId(0),
                        value: Expr::add(local(0), Expr::imm_i32(1)),
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Eq, local(0), Expr::imm_i32(2)),
                        then_: vec![Stmt::Continue],
                        else_: vec![],
                    },
                    Stmt::If {
                        cond: Expr::bin(BinOp::Gt, local(0), Expr::imm_i32(5)),
                        then_: vec![Stmt::Break],
                        else_: vec![],
                    },
                ],
            },
            // l1 = (l1 != 0 && l1 / divisor > 0) ? -l1 : l1 % 7 (division and
            // remainder count as special ops; `!=`/`>` comparisons as int ops).
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::Select {
                    c: Box::new(Expr::bin(
                        BinOp::LAnd,
                        Expr::bin(BinOp::Ne, local(1), Expr::imm_i32(0)),
                        Expr::bin(
                            BinOp::Gt,
                            Expr::bin(BinOp::Div, local(1), param(1)),
                            Expr::imm_i32(0),
                        ),
                    )),
                    t: Box::new(Expr::Unary {
                        op: UnOp::Neg,
                        a: Box::new(local(1)),
                    }),
                    f: Box::new(Expr::bin(BinOp::Rem, local(1), Expr::imm_i32(7))),
                },
            },
            // Checked store: lands locally inside `own`, records a miss
            // outside it.
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::bin(
                    BinOp::Xor,
                    local(1),
                    Expr::bin(BinOp::Shl, local(0), Expr::imm_i32(1)),
                ),
                dirty: false,
                checked: true,
            },
            // Atomic f64 accumulation through a cast and a builtin call.
            Stmt::AtomicRmw {
                buf: BufId(2),
                idx: Expr::bin(BinOp::Rem, Expr::ThreadIdx, Expr::imm_i32(4)),
                op: RmwOp::Add,
                value: Expr::Call {
                    f: Builtin::Fabs,
                    args: vec![Expr::Cast {
                        ty: Ty::F64,
                        a: Box::new(local(1)),
                    }],
                },
            },
        ],
    }
}

fn bfs_world(n: usize, seed: &[i32]) -> (Vec<Buffer>, Vec<Binding>) {
    let src: Vec<i32> = (0..n).map(|i| seed[i % seed.len()].rem_euclid(n as i32)).collect();
    let dst: Vec<i32> = (0..n)
        .map(|i| seed[(i * 7 + 3) % seed.len()].rem_euclid(n as i32))
        .collect();
    let levels: Vec<i32> = (0..n).map(|i| seed[(i * 13 + 1) % seed.len()] % 3 - 1).collect();
    let bufs = vec![
        Buffer::from_i32(&src),
        Buffer::from_i32(&dst),
        Buffer::from_i32(&levels),
    ];
    let bindings = vec![
        Binding::whole(n),
        Binding::whole(n),
        Binding {
            dirty: true,
            ..Binding::whole(n)
        },
    ];
    (bufs, bindings)
}

#[test]
fn bfs_shape_matches_walker() {
    let k = bfs_like_kernel();
    let (bufs, bindings) = bfs_world(64, &[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]);
    // Sweep every frontier level the synthetic `levels` array contains so
    // the frontier-hit path (dirty store + reduction) runs at least once.
    let mut total = OpCounters::default();
    for level in -1..=1 {
        let params = [Value::I32(level), Value::I32(64), Value::I32(0)];
        let out = assert_paths_agree(&k, &params, &bufs, &bindings, &[], usize::MAX, 0, 64);
        assert!(out.result.is_ok());
        total.dirty_marks += out.counters.dirty_marks;
        total.branches += out.counters.branches;
    }
    assert!(total.dirty_marks > 0, "no dirty store ever executed");
    assert!(total.branches > total.dirty_marks);
}

#[test]
fn kitchen_sink_matches_walker() {
    let k = kitchen_sink_kernel();
    let n = 48usize;
    let a: Vec<i32> = (0..n as i32).map(|i| i * 17 - 80).collect();
    let bufs = vec![
        Buffer::from_i32(&a),
        Buffer::from_i32(&vec![0; n]),
        Buffer::zeroed(Ty::F64, 4),
    ];
    // `out` owns only the middle third, so the checked stores at both
    // ends become miss records.
    let bindings = vec![
        Binding::whole(n),
        Binding {
            window_lo: 0,
            own: (16, 32),
            dirty: false,
        },
        Binding::whole(4),
    ];
    let params = [Value::I32(8), Value::I32(3)];
    let out = assert_paths_agree(&k, &params, &bufs, &bindings, &[], usize::MAX, 0, n as i64);
    assert!(out.result.is_ok());
    assert_eq!(out.misses.len() as u64, out.counters.misses);
    assert_eq!(out.counters.misses, 32); // both thirds outside `own`
    assert!(out.counters.atomics > 0 && out.counters.special_ops > 0);
}

#[test]
fn error_paths_match_walker() {
    // Out-of-bounds load: same error, same partial state.
    let k = Kernel {
        name: "oob".into(),
        params: vec![],
        bufs: vec![buf("a", Ty::I32, BufAccess::Read), buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(1),
            idx: Expr::ThreadIdx,
            value: Expr::load(BufId(0), Expr::add(Expr::ThreadIdx, Expr::imm_i32(5))),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::from_i32(&[1, 2, 3, 4, 5, 6, 7, 8]), Buffer::zeroed(Ty::I32, 8)];
    let bind = vec![Binding::whole(8), Binding::whole(8)];
    let out = assert_paths_agree(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 8);
    // Thread 3 reads a[8]; the error names the source array, not its slot.
    assert_eq!(
        out.result,
        Err(ExecError::OutOfBounds {
            buf: "a".into(),
            idx: 8,
            window: (0, 8),
        })
    );

    // Division by zero via a parameter (defeats constant folding and the
    // compile-time `ImmIndex` fusion guard).
    let k = Kernel {
        name: "div0".into(),
        params: vec![i32_param("d")],
        bufs: vec![buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::ThreadIdx,
            value: Expr::bin(BinOp::Div, Expr::imm_i32(10), param(0)),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::zeroed(Ty::I32, 4)];
    let bind = vec![Binding::whole(4)];
    let out = assert_paths_agree(&k, &[Value::I32(0)], &bufs, &bind, &[], usize::MAX, 0, 4);
    assert_eq!(out.result, Err(ExecError::DivByZero));

    // Non-integer buffer index: the peephole pass must leave the bad
    // `PushImm`+`ToIndex` pair unfused so the runtime error survives.
    let k = Kernel {
        name: "badidx".into(),
        params: vec![],
        bufs: vec![buf("a", Ty::I32, BufAccess::Read), buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![],
        reductions: vec![],
        body: vec![Stmt::Store {
            buf: BufId(0),
            idx: Expr::imm_f64(1.5),
            value: Expr::imm_i32(0),
            dirty: false,
            checked: false,
        }],
    };
    let bufs = vec![Buffer::from_i32(&[1, 2]), Buffer::zeroed(Ty::I32, 2)];
    let bind = vec![Binding::whole(2), Binding::whole(2)];
    let out = assert_paths_agree(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 2);
    assert!(matches!(out.result, Err(ExecError::TypeError(_))));

    // Miss-buffer overflow at an exact capacity boundary.
    let out = {
        let k = kitchen_sink_kernel();
        let n = 48usize;
        let a: Vec<i32> = (0..n as i32).collect();
        let bufs = vec![
            Buffer::from_i32(&a),
            Buffer::from_i32(&vec![0; n]),
            Buffer::zeroed(Ty::F64, 4),
        ];
        let bindings = vec![
            Binding::whole(n),
            Binding {
                window_lo: 0,
                own: (16, 32),
                dirty: false,
            },
            Binding::whole(4),
        ];
        assert_paths_agree(&k, &[Value::I32(8), Value::I32(3)], &bufs, &bindings, &[], 7, 0, n as i64)
    };
    assert_eq!(out.result, Err(ExecError::MissBufferOverflow { capacity: 7 }));
    assert_eq!(out.misses.len(), 7);
}

/// Every boolean-context coercion failure must report the *same message*
/// from both paths, including when a short-circuit operator is nested
/// inside another boolean context (the inner `&& / ||` message wins over
/// the enclosing if/while/ternary one, because the operand fails first).
#[test]
fn bool_context_error_messages_match_walker() {
    let run = |name: &str, body: Vec<Stmt>, lo: i64, hi: i64, want: &str| {
        let k = Kernel {
            name: name.into(),
            params: vec![],
            bufs: vec![buf("o", Ty::I32, BufAccess::Write)],
            locals: vec![Ty::I32],
            reductions: vec![],
            body,
        };
        let bufs = vec![Buffer::zeroed(Ty::I32, 8)];
        let bind = vec![Binding::whole(8)];
        let out = assert_paths_agree(&k, &[], &bufs, &bind, &[], usize::MAX, lo, hi);
        assert_eq!(
            out.result,
            Err(ExecError::TypeError(want.into())),
            "wrong message for `{name}`"
        );
    };

    let bad = || Expr::imm_f64(1.5);
    let store = |value: Expr| Stmt::Store {
        buf: BufId(0),
        idx: Expr::ThreadIdx,
        value,
        dirty: false,
        checked: false,
    };

    // Direct non-bool conditions in each context.
    run(
        "bad_if",
        vec![Stmt::If { cond: bad(), then_: vec![], else_: vec![] }],
        0,
        1,
        "non-bool if condition",
    );
    run(
        "bad_while",
        vec![Stmt::While { cond: bad(), body: vec![] }],
        0,
        1,
        "non-bool while condition",
    );
    run(
        "bad_ternary",
        vec![store(Expr::Select {
            c: Box::new(bad()),
            t: Box::new(Expr::imm_i32(1)),
            f: Box::new(Expr::imm_i32(2)),
        })],
        0,
        1,
        "non-bool ternary condition",
    );
    run(
        "bad_logic",
        vec![store(Expr::bin(BinOp::LAnd, bad(), Expr::imm_i32(1)))],
        0,
        1,
        "non-bool in && / ||",
    );

    // Nested: a short-circuit operator inside an if / while / ternary
    // condition. The rhs only trips for threads where the lhs does not
    // short-circuit, and the *logic* message must surface, not the
    // enclosing context's.
    run(
        "logic_rhs_in_if",
        vec![Stmt::If {
            cond: Expr::bin(BinOp::LAnd, Expr::bin(BinOp::Ne, Expr::ThreadIdx, Expr::imm_i32(0)), bad()),
            then_: vec![],
            else_: vec![],
        }],
        1,
        2,
        "non-bool in && / ||",
    );
    run(
        "logic_rhs_in_while",
        vec![Stmt::While {
            cond: Expr::bin(BinOp::LOr, Expr::bin(BinOp::Eq, Expr::ThreadIdx, Expr::imm_i32(-1)), bad()),
            body: vec![],
        }],
        0,
        1,
        "non-bool in && / ||",
    );
    run(
        "logic_lhs_in_ternary",
        vec![store(Expr::Select {
            c: Box::new(Expr::bin(BinOp::LOr, bad(), Expr::imm_i32(1))),
            t: Box::new(Expr::imm_i32(1)),
            f: Box::new(Expr::imm_i32(2)),
        })],
        0,
        1,
        "non-bool in && / ||",
    );

    // But a ternary whose *own* condition is a well-typed comparison of a
    // short-circuit result still reports the ternary message when the
    // select result itself is non-bool... i.e. nesting the other way:
    // `(x && y) ? bad_cond_if : _` — the inner if sees the float.
    run(
        "bad_if_behind_logic",
        vec![Stmt::If {
            cond: Expr::bin(BinOp::LAnd, Expr::imm_i32(1), Expr::imm_i32(1)),
            then_: vec![Stmt::If { cond: bad(), then_: vec![], else_: vec![] }],
            else_: vec![],
        }],
        0,
        1,
        "non-bool if condition",
    );
}

/// Four loads of `a[t]` per thread, so a one-element load window that
/// excludes `t` flags every load.
fn repeated_load_kernel() -> Kernel {
    let x = || Expr::load(BufId(0), Expr::ThreadIdx);
    Kernel {
        name: "repeated_load".into(),
        params: vec![i32_param("c")],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("out", Ty::I32, BufAccess::Write),
        ],
        locals: vec![Ty::I32, Ty::I32],
        reductions: vec![],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::bin(BinOp::Mul, x(), Expr::imm_i32(8)),
            },
            Stmt::Assign {
                local: LocalId(1),
                value: Expr::add(
                    Expr::bin(BinOp::Xor, x(), param(0)),
                    Expr::bin(BinOp::Xor, x(), param(0)),
                ),
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::add(local(0), Expr::add(x(), local(1))),
                dirty: false,
                checked: false,
            },
        ],
    }
}

#[test]
fn every_load_flagged_sanitizer_log_matches_walker() {
    // Thread t may only read [t-1, t): its own element at t is a
    // violation, so all 4 loads per thread hit. The log (capped) and the
    // hit count (uncapped) must match the walker record for record.
    let k = repeated_load_kernel();
    let n = 24usize;
    let a: Vec<i32> = (0..n as i32).collect();
    let bufs = vec![Buffer::from_i32(&a), Buffer::from_i32(&vec![0; n])];
    let bindings = vec![Binding::whole(n), Binding::whole(n)];
    let sanitize = vec![
        BufSanitize {
            load_window: Some((1, 1, -1)),
            carried_window: None,
            check_stores: false,
        },
        BufSanitize {
            load_window: None,
            carried_window: None,
            check_stores: true,
        },
    ];
    let out = assert_paths_agree(
        &k,
        &[Value::I32(3)],
        &bufs,
        &bindings,
        &sanitize,
        usize::MAX,
        0,
        n as i64,
    );
    assert!(out.result.is_ok());
    assert_eq!(out.sanitize_hits, 4 * n as u64, "expected every load flagged");
    assert_eq!(out.sanitize_log.len(), (4 * n).min(SANITIZE_LOG_CAP));
}

#[test]
fn dynamic_type_error_matches_walker() {
    // Not statically typeable: the i32 local `l0` is assigned an f64 for
    // threads >= 3, then used as a load index. Threads 0..3 complete and
    // store; thread 3 faults. Both paths must report the same TypeError
    // over the same partial buffers and counters.
    let k = Kernel {
        name: "dyn_badidx".into(),
        params: vec![],
        bufs: vec![buf("a", Ty::I32, BufAccess::Read), buf("o", Ty::I32, BufAccess::Write)],
        locals: vec![Ty::I32],
        reductions: vec![],
        body: vec![
            Stmt::Assign {
                local: LocalId(0),
                value: Expr::imm_i32(1),
            },
            Stmt::If {
                cond: Expr::bin(BinOp::Ge, Expr::ThreadIdx, Expr::imm_i32(3)),
                then_: vec![Stmt::Assign {
                    local: LocalId(0),
                    value: Expr::imm_f64(1.5),
                }],
                else_: vec![],
            },
            Stmt::Store {
                buf: BufId(1),
                idx: Expr::ThreadIdx,
                value: Expr::load(BufId(0), local(0)),
                dirty: false,
                checked: false,
            },
        ],
    };
    let bufs = vec![Buffer::from_i32(&[7, 8, 9, 10, 11, 12]), Buffer::zeroed(Ty::I32, 6)];
    let bind = vec![Binding::whole(6), Binding::whole(6)];
    let out = assert_paths_agree(&k, &[], &bufs, &bind, &[], usize::MAX, 0, 6);
    assert!(matches!(out.result, Err(ExecError::TypeError(_))));
    assert_eq!(out.counters.threads, 3);
    assert_eq!(out.counters.stores, 3);
}

// ---------------------------------------------------------------------------
// Random kernel generation: a byte stream drives a small structured
// generator producing statically-typed kernels over a fixed world of one
// read buffer, one distributed (checked-store) buffer, one replicated
// (dirty-store) buffer, three i32 locals, and one scalar reduction.
// ---------------------------------------------------------------------------

const RAND_N: usize = 64;

struct Gen<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Gen<'a> {
    fn new(bytes: &'a [u8]) -> Gen<'a> {
        Gen { bytes, pos: 0 }
    }
    fn next(&mut self) -> u8 {
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos = self.pos.wrapping_add(1);
        b
    }

    /// A statically-typed i32 expression. Division and remainder are
    /// included on purpose: random data drives both paths into DivByZero
    /// faults, exercising partial-state parity at a mid-range fault.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return match self.next() % 4 {
                0 => Expr::ThreadIdx,
                1 => param(u32::from(self.next()) % 2),
                2 => local(u32::from(self.next()) % 3),
                _ => imm(i32::from(self.next()) - 128),
            };
        }
        match self.next() % 8 {
            0 => Expr::ThreadIdx,
            1 => param(u32::from(self.next()) % 2),
            2 => local(u32::from(self.next()) % 3),
            3 => imm(i32::from(self.next()) - 128),
            // Masked load: always in bounds for the RAND_N-element world.
            4 => Expr::load(
                BufId(0),
                Expr::bin(BinOp::And, self.expr(depth - 1), imm(RAND_N as i32 - 1)),
            ),
            5 => Expr::Unary {
                op: if self.next().is_multiple_of(2) { UnOp::Neg } else { UnOp::BitNot },
                a: Box::new(self.expr(depth - 1)),
            },
            6 => Expr::Select {
                c: Box::new(self.cond(depth - 1)),
                t: Box::new(self.expr(depth - 1)),
                f: Box::new(self.expr(depth - 1)),
            },
            _ => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Xor,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Shl,
                    BinOp::Shr,
                    BinOp::Div,
                    BinOp::Rem,
                ][usize::from(self.next()) % 10];
                Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
            }
        }
    }

    /// A Bool-typed condition.
    fn cond(&mut self, depth: u32) -> Expr {
        let cmp = |g: &mut Gen<'_>, d: u32| {
            let op = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne]
                [usize::from(g.next()) % 6];
            Expr::bin(op, g.expr(d), g.expr(d))
        };
        if depth == 0 {
            return cmp(self, 0);
        }
        match self.next() % 4 {
            0 => Expr::bin(BinOp::LAnd, self.cond(depth - 1), self.cond(depth - 1)),
            1 => Expr::bin(BinOp::LOr, self.cond(depth - 1), self.cond(depth - 1)),
            2 => Expr::Unary {
                op: UnOp::Not,
                a: Box::new(self.cond(depth - 1)),
            },
            _ => cmp(self, depth - 1),
        }
    }

    /// Statements. Local 2 is reserved as the loop counter so the single
    /// allowed `while` per nesting level always terminates; loop bodies
    /// may not contain further loops or assignments to local 2.
    fn stmts(&mut self, count: u32, depth: u32, allow_loop: bool) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..count {
            let choice = self.next() % if allow_loop { 7 } else { 6 };
            let stmt = match choice {
                0 => Stmt::Assign {
                    local: LocalId(u32::from(self.next()) % 2),
                    value: self.expr(2),
                },
                // Checked store to the distributed buffer: any index is
                // legal, out-of-own indices become miss records.
                1 => Stmt::Store {
                    buf: BufId(1),
                    idx: self.expr(2),
                    value: self.expr(1),
                    dirty: false,
                    checked: true,
                },
                // Dirty store to the replicated buffer, always in bounds.
                2 => {
                    let idx = Expr::bin(BinOp::And, self.expr(1), imm(RAND_N as i32 - 1));
                    Stmt::Store {
                        buf: BufId(2),
                        idx,
                        value: self.expr(1),
                        dirty: true,
                        checked: false,
                    }
                }
                3 => {
                    let idx = Expr::bin(BinOp::And, self.expr(1), imm(RAND_N as i32 - 1));
                    let op = [RmwOp::Add, RmwOp::Mul, RmwOp::Min, RmwOp::Max]
                        [usize::from(self.next()) % 4];
                    Stmt::AtomicRmw {
                        buf: BufId(2),
                        idx,
                        op,
                        value: self.expr(1),
                    }
                }
                4 => {
                    let op = [RmwOp::Add, RmwOp::Min, RmwOp::Max][usize::from(self.next()) % 3];
                    Stmt::ReduceScalar {
                        slot: 0,
                        op,
                        value: self.expr(1),
                    }
                }
                5 if depth > 0 => {
                    let cond = self.cond(1);
                    let nt = u32::from(self.next()) % 3;
                    let then_ = self.stmts(nt, depth - 1, allow_loop);
                    let ne = u32::from(self.next()) % 2;
                    let else_ = self.stmts(ne, depth - 1, allow_loop);
                    Stmt::If { cond, then_, else_ }
                }
                5 => Stmt::Assign {
                    local: LocalId(u32::from(self.next()) % 2),
                    value: self.expr(1),
                },
                _ => {
                    let trips = i32::from(self.next()) % 5;
                    let nb = u32::from(self.next()) % 3;
                    let mut body = self.stmts(nb, depth.min(1), false);
                    body.push(Stmt::Assign {
                        local: LocalId(2),
                        value: Expr::add(local(2), imm(1)),
                    });
                    out.push(Stmt::Assign {
                        local: LocalId(2),
                        value: imm(0),
                    });
                    Stmt::While {
                        cond: Expr::bin(BinOp::Lt, local(2), imm(trips)),
                        body,
                    }
                }
            };
            out.push(stmt);
        }
        out
    }
}

fn random_kernel(bytes: &[u8]) -> Kernel {
    let mut g = Gen::new(bytes);
    let count = 2 + u32::from(g.next()) % 5;
    let body = g.stmts(count, 2, true);
    Kernel {
        name: "random".into(),
        params: vec![i32_param("p0"), i32_param("p1")],
        bufs: vec![
            buf("a", Ty::I32, BufAccess::Read),
            buf("d", Ty::I32, BufAccess::ReadWrite),
            buf("r", Ty::I32, BufAccess::ReadWrite),
        ],
        locals: vec![Ty::I32, Ty::I32, Ty::I32],
        reductions: vec![ScalarReduction {
            var: "sum".into(),
            ty: Ty::I32,
            op: RmwOp::Add,
        }],
        body,
    }
}

/// Full-sanitizer world for a random kernel: distributed `d` with a
/// partial owned range, replicated `r` with a dirty map, load-window and
/// store auditing on (the moral equivalent of `SanitizeLevel::Full`).
fn random_world(data: &[i32], own_lo: usize, own_len: usize) -> (Vec<Buffer>, Vec<Binding>, Vec<BufSanitize>) {
    let n = RAND_N;
    let a: Vec<i32> = (0..n).map(|i| data[i % data.len()]).collect();
    let d: Vec<i32> = (0..n).map(|i| data[(i * 5 + 2) % data.len()].wrapping_mul(3)).collect();
    let r: Vec<i32> = (0..n).map(|i| data[(i * 11 + 7) % data.len()].wrapping_sub(9)).collect();
    let own_lo = own_lo % n;
    let own_hi = (own_lo + own_len % n).min(n);
    let bufs = vec![Buffer::from_i32(&a), Buffer::from_i32(&d), Buffer::from_i32(&r)];
    let bindings = vec![
        Binding::whole(n),
        Binding {
            window_lo: 0,
            own: (own_lo as i64, own_hi as i64),
            dirty: false,
        },
        Binding {
            dirty: true,
            ..Binding::whole(n)
        },
    ];
    let sanitize = vec![
        BufSanitize {
            // Tight declared windows so random access patterns produce
            // sanitizer records that must replay identically.
            load_window: Some((1, 2, 2)),
            carried_window: Some((1, 1, 1)),
            check_stores: false,
        },
        BufSanitize {
            load_window: None,
            carried_window: None,
            check_stores: true,
        },
        BufSanitize {
            load_window: Some((1, 4, 4)),
            carried_window: None,
            check_stores: true,
        },
    ];
    (bufs, bindings, sanitize)
}

fn fuzz_case(
    prog: &[u8],
    data: &[i32],
    p0: i32,
    p1: i32,
    own_lo: usize,
    own_len: usize,
    cap: usize,
) {
    let k = random_kernel(prog);
    let (bufs, bindings, sanitize) = random_world(data, own_lo, own_len);
    let params = [Value::I32(p0), Value::I32(p1)];
    assert_paths_agree(&k, &params, &bufs, &bindings, &sanitize, cap, 0, RAND_N as i64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Randomized BFS-shaped launches: any graph data, any frontier
    /// level, any iteration sub-range, the two paths stay identical.
    #[test]
    fn bytecode_equals_walker_on_random_bfs(
        seed in prop::collection::vec(-10i32..10, 4..32),
        n in 8usize..96,
        level in -2i32..3,
        lo in 0usize..96,
        hi in 0usize..96,
    ) {
        let k = bfs_like_kernel();
        let (bufs, bindings) = bfs_world(n, &seed);
        let params = [Value::I32(level), Value::I32(n as i32), Value::I32(7)];
        let lo = (lo % n) as i64;
        let hi = (hi % n) as i64;
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        assert_paths_agree(&k, &params, &bufs, &bindings, &[], usize::MAX, lo, hi);
    }

    /// Randomized kitchen-sink launches, including tight miss capacities
    /// that abort mid-range.
    #[test]
    fn bytecode_equals_walker_on_random_control_flow(
        vals in prop::collection::vec(-200i32..200, 8..64),
        limit in 0i32..12,
        divisor in -3i32..4,
        own_lo in 0usize..64,
        own_len in 0usize..64,
        cap in 0usize..40,
    ) {
        let k = kitchen_sink_kernel();
        let n = vals.len();
        let bufs = vec![
            Buffer::from_i32(&vals),
            Buffer::from_i32(&vec![0; n]),
            Buffer::zeroed(Ty::F64, 4),
        ];
        let own_lo = own_lo % n;
        let own_hi = (own_lo + own_len).min(n);
        let bindings = vec![
            Binding::whole(n),
            Binding { window_lo: 0, own: (own_lo as i64, own_hi as i64), dirty: false },
            Binding::whole(4),
        ];
        let params = [Value::I32(limit), Value::I32(divisor)];
        assert_paths_agree(&k, &params, &bufs, &bindings, &[], cap, 0, n as i64);
    }

    /// Random structured kernels (control flow, RMW atomics, distributed
    /// checked stores, replicated dirty stores, reductions) under full
    /// sanitizing: walker and bytecode stay bit-identical on every
    /// observable, including mid-range faults.
    #[test]
    fn bytecode_equals_walker_on_random_kernels(
        prog in prop::collection::vec(0u8..=255, 8..96),
        data in prop::collection::vec(-100i32..100, 4..32),
        p0 in -8i32..64,
        p1 in -4i32..8,
        own_lo in 0usize..64,
        own_len in 0usize..64,
        cap in 0usize..96,
    ) {
        fuzz_case(&prog, &data, p0, p1, own_lo, own_len, cap);
    }
}

/// Big fuzz smoke: 600 random Full-sanitize kernels, walker vs bytecode.
/// Run with `cargo test --release -- --ignored bytecode_fuzz_smoke`.
#[test]
#[ignore]
fn bytecode_fuzz_smoke() {
    // Deterministic xorshift stream; no RNG dependency needed.
    let mut s = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for case in 0..600 {
        let prog: Vec<u8> = (0..32 + (next() % 64) as usize).map(|_| next() as u8).collect();
        let data: Vec<i32> = (0..8 + (next() % 24) as usize)
            .map(|_| (next() as i32) % 100)
            .collect();
        let p0 = (next() % 64) as i32 - 8;
        let p1 = (next() % 12) as i32 - 4;
        let own_lo = (next() % 64) as usize;
        let own_len = (next() % 64) as usize;
        let cap = if case % 3 == 0 { (next() % 96) as usize } else { usize::MAX };
        fuzz_case(&prog, &data, p0, p1, own_lo, own_len, cap);
    }
}
