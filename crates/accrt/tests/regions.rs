//! Data-region and launch edge cases: nesting, `present`, the `kernels`
//! spelling, empty iteration spaces, and `update device` on distributed
//! windows.

use acc_compiler::{compile_source, CompileOptions};
use acc_gpusim::Machine;
use acc_kernel_ir::{Buffer, Ty, Value};
use acc_runtime::{run_program, ExecConfig, RunError};

fn machine() -> Machine {
    Machine::supercomputer_node()
}

#[test]
fn nested_data_regions_balance() {
    let src = "void f(int n, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n])\n\
{\n\
#pragma acc data copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = x[i] * 2.0;\n\
}\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) { double t = x[i]; if (t < 0.0) { } }\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 100;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    let expect: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
    assert_eq!(r.arrays[1].to_f64_vec(), expect);
    // All regions closed: no leaked device allocations.
    for g in &m.gpus {
        assert_eq!(g.memory.in_use(), 0, "leaked device memory");
        assert_eq!(g.memory.live_allocations(), 0);
    }
}

#[test]
fn same_array_in_nested_regions() {
    // The inner region redeclares x; OpenACC present-or semantics: depth
    // balances, a single copy-out at the end.
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc data copyin(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = x[i] + 1.0;\n\
}\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 64;
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 1.0));
}

#[test]
fn present_clause_succeeds_inside_enclosing_region() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc data present(x)\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 5.0;\n\
}\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(32)],
        vec![Buffer::zeroed(Ty::F64, 32)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 5.0));
}

#[test]
fn present_clause_fails_when_absent() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data present(x)\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 5.0;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let err = run_program(
        &mut m,
        &ExecConfig::gpus(1),
        &prog,
        vec![Value::I32(8)],
        vec![Buffer::zeroed(Ty::F64, 8)],
    )
    .unwrap_err();
    assert!(matches!(err, RunError::NotPresent(_)), "{err}");
}

#[test]
fn kernels_loop_spelling_works() {
    let src = "void f(int n, double *x) {\n\
#pragma acc kernels loop copy(x[0:n])\n\
for (int i = 0; i < n; i++) x[i] = 7.0;\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(16)],
        vec![Buffer::zeroed(Ty::F64, 16)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f64_vec().iter().all(|&v| v == 7.0));
}

#[test]
fn empty_iteration_space_is_a_no_op_launch() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:4])\n\
{\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = 1.0;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(0)], // zero iterations
        vec![Buffer::from_f64(&[9.0, 9.0, 9.0, 9.0])],
    )
    .unwrap();
    assert_eq!(r.arrays[0].to_f64_vec(), vec![9.0; 4]);
    assert_eq!(r.trace.counters().kernel_launches, 1);
    assert_eq!(r.profile.kernel_counters.threads, 0);
}

#[test]
fn fewer_iterations_than_gpus() {
    let src = "void f(int n, double *x) {\n\
#pragma acc data copy(x[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) x[i] = (double)i;\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(2)], // 2 iterations, 3 GPUs
        vec![Buffer::zeroed(Ty::F64, 2)],
    )
    .unwrap();
    assert_eq!(r.arrays[0].to_f64_vec(), vec![0.0, 1.0]);
}

#[test]
fn update_device_reaches_distributed_windows() {
    // Host rewrites the array mid-region; update device must land in each
    // GPU's partition window.
    let src = "void f(int n, double *x, double *y) {\n\
#pragma acc data copyin(x[0:n]) copy(y[0:n])\n\
{\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = x[i];\n\
int j = 0;\n\
while (j < n) { x[j] = 100.0; j = j + 1; }\n\
#pragma acc update device(x[0:n])\n\
#pragma acc localaccess(x) stride(1)\n\
#pragma acc localaccess(y) stride(1)\n\
#pragma acc parallel loop\n\
for (int i = 0; i < n; i++) y[i] = y[i] + x[i];\n\
}\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let n = 96;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(3),
        &prog,
        vec![Value::I32(n as i32)],
        vec![Buffer::from_f64(&x), Buffer::zeroed(Ty::F64, n)],
    )
    .unwrap();
    let expect: Vec<f64> = (0..n).map(|i| i as f64 + 100.0).collect();
    assert_eq!(r.arrays[1].to_f64_vec(), expect);
}

#[test]
fn float_scalar_params_capture() {
    let src = "void f(int n, float a, double b, float *x) {\n\
#pragma acc parallel loop copy(x[0:n])\n\
for (int i = 0; i < n; i++) x[i] = a + (float)b;\n\
}";
    let prog = compile_source(src, "f", &CompileOptions::proposal()).unwrap();
    let mut m = machine();
    let r = run_program(
        &mut m,
        &ExecConfig::gpus(2),
        &prog,
        vec![Value::I32(8), Value::F32(1.5), Value::F64(2.25)],
        vec![Buffer::zeroed(Ty::F32, 8)],
    )
    .unwrap();
    assert!(r.arrays[0].to_f32_vec().iter().all(|&v| v == 3.75));
}
