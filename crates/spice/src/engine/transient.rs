//! Transient analysis with adaptive stepping and source breakpoints.

use super::{dc, NewtonWorkspace, Phase, PhaseTimes, SimStats, System, GMIN};
use crate::erc;
use crate::error::{Error, Result};
use crate::netlist::{Circuit, Element};
use crate::nonlinear::EvalCtx;
use crate::probe::Trace;
use crate::units::TEMP_NOMINAL;

/// Options for [`transient`]. Charge storage is integrated by backward
/// Euler (first order, L-stable: robust on the hard switching edges of
/// the search and write waveforms), at the nominal temperature.
#[derive(Debug, Clone)]
pub struct TranOpts {
    /// End time (s).
    pub t_stop: f64,
    /// Initial step (s).
    pub dt_init: f64,
    /// Largest allowed step (s).
    pub dt_max: f64,
    /// Smallest allowed step before declaring failure (s).
    pub dt_min: f64,
    /// Skip the initial DC operating point and start from the node
    /// initial conditions declared on the circuit (SPICE `uic`).
    pub uic: bool,
    /// Device internal states to record, as `(device_name, state_key)`;
    /// recorded as signal `"<device>.<key>"`.
    pub record_states: Vec<(String, String)>,
}

impl TranOpts {
    /// Reasonable defaults for a run to `t_stop`: `dt_init = t_stop/1e4`,
    /// `dt_max = t_stop/200`.
    #[must_use]
    pub fn to_time(t_stop: f64) -> Self {
        Self {
            t_stop,
            dt_init: t_stop / 1e4,
            dt_max: t_stop / 200.0,
            dt_min: t_stop / 1e12,
            uic: false,
            record_states: Vec::new(),
        }
    }
}

/// Relative slack when deciding whether a step lands on a breakpoint.
const BP_SNAP: f64 = 1e-12;

/// Merge tolerance for adjacent breakpoints, relative to the breakpoint's
/// own magnitude (not to `t_stop`).
const BP_MERGE_REL: f64 = 1e-9;

/// Collect, sort and dedup the source-waveform breakpoints for a run to
/// `t_stop`; `t_stop` itself is always included (and is the final entry).
///
/// Near-duplicate edges are merged with a tolerance relative to the
/// breakpoint's own value rather than to `t_stop`: on a long run (a
/// write–verify sequence, say) two distinct nanosecond-spaced edges must
/// both survive, while the float noise from identical edges computed two
/// ways still collapses.
#[must_use]
pub fn collect_breakpoints(ckt: &Circuit, t_stop: f64) -> Vec<f64> {
    let mut bps: Vec<f64> = ckt
        .elements()
        .iter()
        .flat_map(|e| match e {
            Element::VSource { wave, .. } => wave.breakpoints(t_stop),
            _ => Vec::new(),
        })
        .collect();
    bps.push(t_stop);
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() <= BP_MERGE_REL * b.abs().max(f64::MIN_POSITIVE));
    bps
}

/// Run a transient analysis on `ckt` (mutable: history-dependent devices
/// advance their internal state as time moves forward).
///
/// Recorded signals: `v(<node>)` for every non-ground node, `i(<vsrc>)`
/// and `e(<vsrc>)` (cumulative energy **delivered by** the source) for
/// every voltage source, plus any requested device states.
///
/// # Errors
/// * [`Error::NonConvergence`] / [`Error::TimeStepTooSmall`] when Newton
///   cannot be rescued by step shrinking;
/// * [`Error::SingularMatrix`] for structurally defective circuits.
pub fn transient(ckt: &mut Circuit, opts: &TranOpts) -> Result<Trace> {
    let _span = crate::trace::span("transient");
    erc::preflight(ckt)?;
    let mut stats = SimStats::default();
    let mut phases = PhaseTimes::default();
    // --- Initial solution ------------------------------------------------
    let mut x: Vec<f64> = if opts.uic {
        let sysdim = {
            let sys = System::new(ckt);
            sys.nvars
        };
        let mut x0 = vec![0.0; sysdim];
        for &(node, v) in ckt.initial_conditions() {
            if node.index() > 0 {
                x0[node.index() - 1] = v;
            }
        }
        x0
    } else {
        // The pre-flight above already covers this solve.
        let sol = dc::solve(ckt, TEMP_NOMINAL)?;
        stats.merge(sol.stats());
        phases.merge(sol.phase_times());
        sol.as_vec().to_vec()
    };

    // --- Static bookkeeping ----------------------------------------------
    let vsrc: Vec<(
        String,
        usize,
        crate::netlist::NodeId,
        crate::netlist::NodeId,
    )> = ckt
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::VSource {
                name, p, n, branch, ..
            } => Some((name.clone(), *branch, *p, *n)),
            _ => None,
        })
        .collect();
    let node_names: Vec<String> = ckt
        .signal_nodes()
        .iter()
        .map(|s| (*s).to_string())
        .collect();

    let mut signal_names: Vec<String> = node_names.iter().map(|n| format!("v({n})")).collect();
    for (name, ..) in &vsrc {
        signal_names.push(format!("i({name})"));
        signal_names.push(format!("e({name})"));
    }
    let state_probe: Vec<(usize, String, String)> = opts
        .record_states
        .iter()
        .filter_map(|(dev_name, key)| {
            ckt.devices()
                .iter()
                .position(|d| d.name() == dev_name)
                .map(|di| (di, dev_name.clone(), key.clone()))
        })
        .collect();
    for (_, dev, key) in &state_probe {
        signal_names.push(format!("{dev}.{key}"));
    }
    let mut trace = Trace::with_signals(signal_names);

    // Breakpoints from every source waveform.
    let bps = collect_breakpoints(ckt, opts.t_stop);

    // --- Companion state ---------------------------------------------------
    // The workspace lives outside the time loop so the scatter plan and
    // LU pattern cached on the first step carry across every later step
    // (the System view is rebuilt per step because devices need `&mut
    // ckt` on accept, but the matrix pattern is a property of the fixed
    // topology).
    let (mut comp, mut ws) = {
        let sys = System::new(ckt);
        let comp = sys.new_companion();
        let ws = NewtonWorkspace::new(&sys);
        (comp, ws)
    };
    let ctx0 = EvalCtx {
        temp: TEMP_NOMINAL,
        gmin: GMIN,
        time: 0.0,
    };
    store_charges(ckt, &x, &ctx0, &mut comp, &mut ws);

    // Per-source cumulative delivered energy and last power sample.
    let mut energy = vec![0.0f64; vsrc.len()];
    let mut power_prev = vec![0.0f64; vsrc.len()];
    record_point(
        ckt,
        &x,
        0.0,
        &vsrc,
        &mut energy,
        &mut power_prev,
        true,
        &state_probe,
        &mut trace,
    );

    // --- Time march --------------------------------------------------------
    let mut t = 0.0f64;
    let mut dt = opts.dt_init.min(opts.dt_max);
    let mut bp_iter = bps.iter().copied().peekable();

    while t < opts.t_stop * (1.0 - BP_SNAP) {
        // Next breakpoint strictly after t.
        while let Some(&bp) = bp_iter.peek() {
            if bp <= t * (1.0 + BP_SNAP) + f64::MIN_POSITIVE {
                bp_iter.next();
            } else {
                break;
            }
        }
        let next_bp = bp_iter.peek().copied().unwrap_or(opts.t_stop);

        let mut dt_eff = dt.min(opts.dt_max).min(opts.t_stop - t);
        if t + dt_eff >= next_bp - opts.t_stop * BP_SNAP {
            dt_eff = next_bp - t;
        }

        let t_new = t + dt_eff;
        comp.coeff = 1.0 / dt_eff;

        let evals0 = ws.evals;
        let attempt = {
            let sys = System::new(ckt);
            sys.newton(
                &x,
                t_new,
                1.0,
                TEMP_NOMINAL,
                GMIN,
                Some(&comp),
                &mut ws,
                None,
                "transient",
            )
        };
        match attempt {
            Ok((x_new, iters)) => {
                // Accept: advance companion state and device history.
                let ctx = EvalCtx {
                    temp: TEMP_NOMINAL,
                    gmin: GMIN,
                    time: t_new,
                };
                advance_state(ckt, &x_new, &ctx, &mut comp, &mut ws);
                x = x_new;
                t = t_new;
                stats.accepted_steps += 1;
                crate::trace::step_accepted("transient", t, dt_eff, iters, ws.evals - evals0);
                record_point(
                    ckt,
                    &x,
                    t,
                    &vsrc,
                    &mut energy,
                    &mut power_prev,
                    false,
                    &state_probe,
                    &mut trace,
                );
                if iters <= 10 {
                    dt = (dt * 1.4).min(opts.dt_max);
                } else if iters > 25 {
                    dt *= 0.7;
                }
            }
            Err(e @ Error::SingularMatrix { .. }) if dt_eff <= opts.dt_min * 4.0 => {
                // Step shrinking cannot rescue a structural singularity:
                // propagate the original error (its pivot index is real)
                // and map the index back to an MNA variable name.
                if let Error::SingularMatrix { index } = &e {
                    crate::trace::singular_pivot(
                        "transient",
                        t_new,
                        *index,
                        crate::trace::mna_var_name(ckt, *index),
                    );
                }
                return Err(e);
            }
            Err(e) => {
                stats.rejected_steps += 1;
                crate::trace::step_rejected("transient", t, dt_eff, &e);
                // Cut the *pre-clamp* dt, not dt_eff: dt_eff may already
                // be clamped to a tiny breakpoint gap, and quartering
                // that would collapse the step size for the rest of the
                // run after one rejection at a source edge.
                dt *= 0.25;
                if dt < opts.dt_min {
                    return Err(Error::TimeStepTooSmall { time: t, dt });
                }
            }
        }
    }
    ws.clock.lap(Phase::Step);
    stats.merge(ws.stats());
    phases.merge(ws.clock.times);
    trace.set_stats(stats);
    trace.set_phase_times(phases);
    Ok(trace)
}

/// Evaluate charge state at `x` and store it as the companion history:
/// at t = 0 and after every accepted step. Backward Euler needs no other
/// history.
///
/// Leaves `ws.stamps`/`ws.vt_cache` holding an evaluation at `x`, which
/// the first Newton iteration reuses.
fn store_charges(
    ckt: &Circuit,
    x: &[f64],
    ctx: &EvalCtx,
    comp: &mut super::Companion,
    ws: &mut NewtonWorkspace,
) {
    let sys = System::new(ckt);
    let mut cap_pos = 0usize;
    for elem in ckt.elements() {
        if let Element::Capacitor { p, n, farads, .. } = elem {
            comp.cap_q_prev[cap_pos] = farads * (sys.voltage(x, *p) - sys.voltage(x, *n));
            cap_pos += 1;
        }
    }
    for (di, dev) in ckt.devices().iter().enumerate() {
        ws.load_vt(di, x);
        ws.accept_evals += u64::from(ws.refresh(di, dev.as_ref(), ctx));
        let off = comp.dev_offsets[di];
        let q = &ws.stamps[di].q;
        comp.dev_q_prev[off..off + q.len()].copy_from_slice(q);
    }
}

/// After an accepted step: update the charge history and let devices
/// commit internal state (ferroelectric polarisation etc.).
///
/// The device evaluations at `x` made here stay cached, so iteration 1
/// of the next solve — which starts from the same `x` — reuses them for
/// every device whose `commit` reported no state change.
fn advance_state(
    ckt: &mut Circuit,
    x: &[f64],
    ctx: &EvalCtx,
    comp: &mut super::Companion,
    ws: &mut NewtonWorkspace,
) {
    store_charges(ckt, x, ctx, comp, ws);
    // Device state commit needs &mut on the circuit; the terminal
    // voltages were already gathered into the workspace scratch above.
    for (di, dev) in ckt.devices_mut().iter_mut().enumerate() {
        if dev.commit(ws.device_vt(di), ctx) {
            // The state moved: a fresh eval at the *same* voltages would
            // now differ, so the cached evaluation is stale.
            ws.mark_stale(di);
        }
    }
}

/// Append one record to the trace, integrating per-source energy.
#[allow(clippy::too_many_arguments)]
fn record_point(
    ckt: &Circuit,
    x: &[f64],
    t: f64,
    vsrc: &[(
        String,
        usize,
        crate::netlist::NodeId,
        crate::netlist::NodeId,
    )],
    energy: &mut [f64],
    power_prev: &mut [f64],
    first: bool,
    state_probe: &[(usize, String, String)],
    trace: &mut Trace,
) {
    let sys = System::new(ckt);
    let mut row: Vec<f64> = Vec::with_capacity(sys.nvars + vsrc.len() + state_probe.len());
    row.extend_from_slice(&x[..sys.num_nodes - 1]);
    let dt = if first || trace.is_empty() {
        0.0
    } else {
        t - *trace.time().last().expect("non-empty trace")
    };
    for (k, (_, branch, p, n)) in vsrc.iter().enumerate() {
        let i = x[sys.branch_var(*branch)];
        let v = sys.voltage(x, *p) - sys.voltage(x, *n);
        // i flows p→n *through* the source, so power delivered = −v·i.
        let p_del = -v * i;
        if !first {
            energy[k] += 0.5 * (p_del + power_prev[k]) * dt;
        }
        power_prev[k] = p_del;
        row.push(i);
        row.push(energy[k]);
    }
    for (di, _, key) in state_probe {
        row.push(ckt.devices()[*di].state(key).unwrap_or(0.0));
    }
    trace.push(t, &row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::probe::Edge;
    use crate::waveform::Waveform;

    /// RC charging: v(t) = V·(1 − e^(−t/RC)).
    #[test]
    fn rc_step_response_backward_euler() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let r = 1e3;
        let c = 1e-9; // tau = 1 us
        ckt.vsource(
            "V1",
            a,
            Circuit::gnd(),
            Waveform::pulse(0.0, 1.0, 1e-7, 1e-9, 1e-9, 1.0),
        );
        ckt.resistor("R1", a, b, r).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), c).unwrap();
        let mut opts = TranOpts::to_time(5e-6);
        opts.dt_max = 5e-9;
        let tr = transient(&mut ckt, &opts).unwrap();
        // After 1 tau (t = delay + 1us): v = 1 − 1/e ≈ 0.632.
        let v = tr.value_at("v(b)", 1e-7 + 1e-6).unwrap();
        assert!((v - 0.6321).abs() < 0.01, "v = {v}");
        // After 5 tau: fully charged.
        let v5 = tr.value_at("v(b)", 1e-7 + 4.8e-6).unwrap();
        assert!(v5 > 0.99, "v5 = {v5}");
    }

    #[test]
    fn source_energy_matches_cv2_for_full_charge() {
        // Charging C through R from an ideal source costs E = C·V² total
        // from the source (half stored, half burned in R).
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(
            "V1",
            a,
            Circuit::gnd(),
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0),
        );
        ckt.resistor("R1", a, b, 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), 1e-12).unwrap();
        let mut opts = TranOpts::to_time(20e-9); // 20 tau
        opts.dt_max = 2e-11;
        let tr = transient(&mut ckt, &opts).unwrap();
        let e = tr.source_energy("V1").unwrap();
        let cv2 = 1e-12 * 1.0 * 1.0;
        assert!((e - cv2).abs() < 0.05 * cv2, "E = {e}, CV² = {cv2}");
    }

    #[test]
    fn uic_starts_from_initial_conditions() {
        // Precharged cap discharging through R.
        let mut ckt = Circuit::new();
        let b = ckt.node("b");
        ckt.resistor("R1", b, Circuit::gnd(), 1e3).unwrap();
        ckt.capacitor("C1", b, Circuit::gnd(), 1e-9).unwrap();
        ckt.initial_condition(b, 1.0);
        let mut opts = TranOpts::to_time(3e-6);
        opts.uic = true;
        opts.dt_max = 10e-9;
        let tr = transient(&mut ckt, &opts).unwrap();
        let v0 = tr.value_at("v(b)", 0.0).unwrap();
        assert!((v0 - 1.0).abs() < 1e-9);
        let v1 = tr.value_at("v(b)", 1e-6).unwrap();
        assert!((v1 - (-1.0f64).exp()).abs() < 0.01, "v(tau) = {v1}");
    }

    #[test]
    fn pulse_edge_timing_via_cross() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(
            "V1",
            a,
            Circuit::gnd(),
            Waveform::pulse(0.0, 1.0, 1e-9, 0.2e-9, 0.2e-9, 1e-9),
        );
        ckt.resistor("R1", a, Circuit::gnd(), 1e3).unwrap();
        let tr = transient(&mut ckt, &TranOpts::to_time(4e-9)).unwrap();
        let t_rise = tr.cross("v(a)", 0.5, Edge::Rising, 1).unwrap().unwrap();
        assert!((t_rise - 1.1e-9).abs() < 0.05e-9, "t_rise = {t_rise}");
        let t_fall = tr.cross("v(a)", 0.5, Edge::Falling, 1).unwrap().unwrap();
        assert!((t_fall - 2.3e-9).abs() < 0.05e-9, "t_fall = {t_fall}");
    }
}
