//! Set-up timing: constructing the engine or server and cold-compiling
//! every (source, options) a workload runs, repeated and reported as a
//! median so that work moved into set-up shows.

use acc_apps::App;
use acc_compiler::CompileOptions;
use acc_runtime::{Engine, RunError};

use crate::spans::Spans;
use crate::stats::median;

/// Measured set-ups per run; the median is `setup_s`.
pub const SETUP_REPS: usize = 15;

/// Seconds of unmeasured set-ups before the measured ones.
pub const SETUP_WARM_S: f64 = 0.5;

/// Seconds of untimed jobs between set-up and the measured phase: caches
/// and pools fill, and idle CPUs come up to speed (on the reference
/// 2-vCPU machine the first second of work after idle runs markedly
/// slower).
pub const WARMUP_S: f64 = 1.5;

/// Job id the set-up spans carry.
pub const SETUP_JOB: u64 = u64::MAX;

/// Medians over the set-up repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Construct + cold-compile everything.
    pub setup_s: f64,
    /// `acc_minic::frontend` over every source (traced runs only).
    pub frontend_s: f64,
    /// `acc_compiler::compile` over every source (traced runs only).
    pub translate_s: f64,
}

/// Cold-compile every app through `engine`; each must be a cache miss.
pub fn cold_compile(engine: &Engine, apps: &[App], spans: &mut Spans) -> Result<(), String> {
    for &app in apps {
        let (res, _) = spans.time("engine.compile_entry", SETUP_JOB, || {
            engine.compile_entry(app.source(), app.function(), &CompileOptions::proposal())
        });
        match res {
            Ok((_, false)) => {}
            Ok((_, true)) => {
                return Err(format!("{}: set-up compile hit a warm cache", app.name()))
            }
            Err(e @ RunError::Compile(_)) => return Err(format!("{}: {e}", app.name())),
            Err(e) => return Err(format!("{}: [{}] {e}", app.name(), e.code())),
        }
    }
    Ok(())
}

/// The frontend and the translator timed apart, around their public
/// entry points (what `Engine::compile_entry` runs on a miss).
fn time_compiler(apps: &[App], spans: &mut Spans) -> Result<(f64, f64), String> {
    let (mut fe, mut tr) = (0.0, 0.0);
    for &app in apps {
        let (typed, dt) = spans.time("minic.frontend", SETUP_JOB, || {
            acc_minic::frontend(app.source())
        });
        fe += dt;
        let typed = typed.map_err(|_| format!("{}: frontend rejected the source", app.name()))?;
        let (prog, dt) = spans.time("accc.compile", SETUP_JOB, || {
            acc_compiler::compile(&typed, app.function(), &CompileOptions::proposal())
        });
        tr += dt;
        prog.map_err(|e| format!("{}: {e}", app.name()))?;
    }
    Ok((fe, tr))
}

/// Run `build` (construct + cold compile) [`SETUP_REPS`] times, keeping
/// the last result. Traced runs also time the frontend and translator
/// apart after each set-up, outside the set-up time.
pub fn repeat<T>(
    apps: &[App],
    spans: &mut Spans,
    mut build: impl FnMut(&mut Spans) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, SetupTimes), String> {
    let (mut setup, mut fe, mut tr) = (Vec::new(), Vec::new(), Vec::new());
    // Unmeasured set-ups first, while the CPUs come up to speed: the
    // process starts from idle.
    let warm = std::time::Instant::now();
    let mut quiet = Spans::new(false, 0, spans.origin());
    while warm.elapsed().as_secs_f64() < SETUP_WARM_S {
        discard(build(&mut quiet)?);
    }
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let root = spans.open("setup", SETUP_JOB);
        let built = build(spans);
        setup.push(spans.close(root));
        kept = Some(built?);
        if spans.enabled() {
            let (f, t) = time_compiler(apps, spans)?;
            fe.push(f);
            tr.push(t);
        }
    }
    let times = SetupTimes {
        setup_s: median(&setup),
        frontend_s: median(&fe),
        translate_s: median(&tr),
    };
    Ok((kept.expect("at least one set-up"), times))
}
