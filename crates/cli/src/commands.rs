//! CLI command implementations.

use ferrotcam::cell::{DesignKind, DesignParams, RowParasitics, SearchTiming};
use ferrotcam::fom::{characterize_search, characterize_write};
use ferrotcam::margins::nominal_margins;
use ferrotcam::{build_search_row, TernaryWord};
use ferrotcam_device::calib;
use ferrotcam_device::extract::{subthreshold_slope, vth_constant_current};
use ferrotcam_device::fefet::{Fefet, VthState};
use ferrotcam_eval::parasitics::row_parasitics;
use ferrotcam_eval::tech::tech_14nm;
use ferrotcam_spice::NodeId;
use std::fmt::Write as _;

/// Usage text shown on errors and `help`.
pub const USAGE: &str = "\
ferroTCAM toolkit

USAGE:
  ferrotcam designs
      List the five TCAM designs.
  ferrotcam search <design> <stored-word> <query-bits>
      Circuit-simulate one row search. Word digits: 0, 1, X;
      query bits: 0/1 (same width).
  ferrotcam characterize <design> [word-len]
      Measure search latency and energy (default 16 cells).
  ferrotcam write <design>
      Measure per-cell write energy for '0', '1' and 'X'.
  ferrotcam margins <design>
      DC divider margins of a 1.5T design.
  ferrotcam idvg <sg|dg> [--csv]
      Id-Vg sweep of the calibrated FeFET in all three states.
  ferrotcam export <design> <stored-word> <query-bits>
      Print the row netlist as SPICE.
  ferrotcam table <file> <query-bits>
      Load a table file (one ternary word per line, # comments) and
      search it; prints matching rows in priority order.
  ferrotcam lint [--all] [--deny] [--json]
      Run the ERC static analyzer over every generated netlist (one
      search row per design; --all adds 1.5T divider cells, full
      arrays and write arrays). --deny fails on any error-severity
      diagnostic; --json emits machine-readable reports.
  ferrotcam analyze [--deny] [--json] [--root <dir>]
      Run the concurrency static analyzer over the serving layer's
      sources: sync-facade enforcement, the atomic-ordering registry,
      lock-order auditing, and hot-path hygiene. --deny fails on any
      deny-severity diagnostic; --json emits a machine-readable
      report; --root overrides workspace discovery.
  ferrotcam trace [<design> <stored-word> <query-bits>]
                  [--summary|--full] [--ndjson] [--out FILE]
      Run one row-search transient with tracing enabled and render
      the observability output: span timings plus step accept/reject
      counters (--summary, default), or the per-step event stream as
      newline-delimited JSON (--ndjson; --full adds per-step events).
      Defaults to a 4-bit 2DG row with a one-bit mismatch.
  ferrotcam trace --serve
      Trace a 2-shard service answering exact searches paced 50 us
      apart: batch and queue-wait timings, the length of each
      dispatcher park, dispatcher parks and wake-ups, and the spinning
      dispatcher's pick-ups and contention backoffs.

DESIGNS: 2sg | 2dg | 1.5t1sg | 1.5t1dg | cmos (aliases accepted)";

/// A CLI-level error: message shown to the user.
type CliResult = Result<(), String>;

/// Write a machine-readable body to stdout without panicking: piping
/// into `head` closes the pipe early, and the resulting
/// [`std::io::ErrorKind::BrokenPipe`] must surface as a clean non-zero
/// exit, not a panic (`println!` aborts the process on write failure).
pub(crate) fn write_stdout(body: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    out.write_all(body.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                "broken pipe: stdout closed before all output was written".to_string()
            } else {
                format!("writing to stdout: {e}")
            }
        })
}

/// Dispatch a command line.
///
/// # Errors
/// Returns a human-readable message for unknown commands or bad
/// arguments; simulator failures are formatted in context.
pub fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("designs") => designs(),
        Some("search") => search(&args[1..]),
        Some("characterize") => characterize(&args[1..]),
        Some("write") => write_energy(&args[1..]),
        Some("margins") => margins(&args[1..]),
        Some("idvg") => idvg(&args[1..]),
        Some("export") => export(&args[1..]),
        Some("table") => table_lookup(&args[1..]),
        Some("lint") => crate::lint::run(&args[1..]),
        Some("analyze") => crate::analyze::run(&args[1..]),
        Some("trace") => crate::trace_cmd::run(&args[1..]),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

pub(crate) fn parse_design(s: &str) -> Result<DesignKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "2sg" | "2sg-fefet" | "sg2" => Ok(DesignKind::Sg2),
        "2dg" | "2dg-fefet" | "dg2" => Ok(DesignKind::Dg2),
        "1.5t1sg" | "15t1sg" | "t15sg" | "1.5t1sg-fe" => Ok(DesignKind::T15Sg),
        "1.5t1dg" | "15t1dg" | "t15dg" | "1.5t1dg-fe" => Ok(DesignKind::T15Dg),
        "cmos" | "16t" | "cmos16t" => Ok(DesignKind::Cmos16t),
        other => Err(format!(
            "unknown design {other:?} (try `ferrotcam designs`)"
        )),
    }
}

pub(crate) fn parse_word(s: &str) -> Result<TernaryWord, String> {
    s.parse::<TernaryWord>().map_err(|e| e.to_string())
}

pub(crate) fn parse_query(s: &str, width: usize) -> Result<Vec<bool>, String> {
    let q: Result<Vec<bool>, String> = s
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("query bits are 0/1, got {other:?}")),
        })
        .collect();
    let q = q?;
    if q.len() != width {
        return Err(format!(
            "query width {} does not match stored width {width}",
            q.len()
        ));
    }
    Ok(q)
}

fn designs() -> CliResult {
    println!("available designs:");
    for kind in DesignKind::ALL {
        let steps = if kind.is_two_step() {
            "2-step search"
        } else {
            "1-step search"
        };
        let dev = match kind {
            DesignKind::Cmos16t => "16 transistors".to_string(),
            k => format!(
                "{} FeFET(s)/cell, {}",
                DesignParams::preset(k).fefets_per_cell(),
                if k.is_dg() {
                    "double-gate"
                } else {
                    "single-gate"
                }
            ),
        };
        println!("  {:<12} {dev}, {steps}", kind.name());
    }
    Ok(())
}

pub(crate) fn build(
    design: DesignKind,
    stored: &TernaryWord,
    query: &[bool],
) -> Result<ferrotcam::SearchSim, String> {
    let params = DesignParams::preset(design);
    build_search_row(
        &params,
        stored,
        query,
        SearchTiming::default(),
        RowParasitics::default(),
        design.is_two_step(),
    )
    .map_err(|e| format!("building the row failed: {e}"))
}

fn search(args: &[String]) -> CliResult {
    let [design, stored, query] = args else {
        return Err("usage: ferrotcam search <design> <stored-word> <query-bits>".into());
    };
    let design = parse_design(design)?;
    let stored = parse_word(stored)?;
    let query = parse_query(query, stored.len())?;
    if design.is_two_step() && stored.len() % 2 != 0 {
        return Err("1.5T designs pair cells: use an even word length".into());
    }
    let mut sim = build(design, &stored, &query)?;
    let run = sim.run().map_err(|e| format!("transient failed: {e}"))?;
    let matched = run.matched().map_err(|e| e.to_string())?;
    println!(
        "{}: stored {stored}, query {} -> {}",
        design.name(),
        query
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect::<String>(),
        if matched { "MATCH" } else { "MISS" }
    );
    if let Some(lat) = run.latency().map_err(|e| e.to_string())? {
        println!("  SA fired {:.0} ps after search start", lat * 1e12);
    }
    println!("  energy: {:.3} fJ", run.total_energy() * 1e15);
    let stats = run.trace.stats();
    println!(
        "  solver: {} Newton iters; {} full factor(s) + {} refactor(s); {} rejected step(s)",
        stats.newton_iters, stats.full_factors, stats.refactors, stats.rejected_steps
    );
    // Sanity: the logic-level verdict must agree.
    let expect = stored.matches_query(&query);
    if matched != expect {
        return Err("circuit and logic verdicts disagree (calibration issue?)".into());
    }
    Ok(())
}

fn characterize(args: &[String]) -> CliResult {
    let design = parse_design(
        args.first()
            .ok_or("usage: ferrotcam characterize <design> [word-len]")?,
    )?;
    let n: usize = args
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad word length {s:?}")))
        .transpose()?
        .unwrap_or(16);
    let tech = tech_14nm();
    let m = characterize_search(design, n, row_parasitics(design, &tech))
        .map_err(|e| format!("characterisation failed: {e}"))?;
    println!("{} at {n}-bit words:", design.name());
    println!("  1-step latency : {:.0} ps", m.latency_1step * 1e12);
    if let Some(l2) = m.latency_2step {
        println!("  2-step latency : {:.0} ps", l2 * 1e12);
    }
    println!(
        "  energy, step-1 terminated : {:.3} fJ/cell",
        m.energy_1step_per_cell() * 1e15
    );
    if let Some(e2) = m.energy_2step_per_cell() {
        println!("  energy, full search       : {:.3} fJ/cell", e2 * 1e15);
    }
    println!(
        "  energy @90% miss rate     : {:.3} fJ/cell",
        m.energy_avg_per_cell(0.9) * 1e15
    );
    Ok(())
}

fn write_energy(args: &[String]) -> CliResult {
    let design = parse_design(args.first().ok_or("usage: ferrotcam write <design>")?)?;
    if design == DesignKind::Cmos16t {
        return Err("the CMOS baseline has no FeFET write path (paper: N.A.)".into());
    }
    let w = characterize_write(design, 1e-18).map_err(|e| format!("write sim failed: {e}"))?;
    println!("{} write energy per cell:", design.name());
    println!("  '0' : {:.3} fJ", w.energy_write0 * 1e15);
    println!("  '1' : {:.3} fJ", w.energy_write1 * 1e15);
    println!("  'X' : {:.3} fJ", w.energy_write_x * 1e15);
    println!(
        "  avg : {:.3} fJ (half '0' / half '1')",
        w.energy_avg() * 1e15
    );
    Ok(())
}

fn margins(args: &[String]) -> CliResult {
    let design = parse_design(args.first().ok_or("usage: ferrotcam margins <design>")?)?;
    if !design.is_t15() {
        return Err("margins analysis applies to the 1.5T designs".into());
    }
    let m = nominal_margins(design).map_err(|e| format!("margin solve failed: {e}"))?;
    println!("{} static divider margins:", design.name());
    println!(
        "  discharge (mismatch drive over TML Vth) : {:+.0} mV",
        m.discharge * 1e3
    );
    println!(
        "  hold (match/'X' below TML Vth)          : {:+.0} mV",
        m.hold * 1e3
    );
    println!(
        "  functional: {}",
        if m.functional() { "yes" } else { "NO" }
    );
    Ok(())
}

fn idvg(args: &[String]) -> CliResult {
    let flavour = args
        .first()
        .ok_or("usage: ferrotcam idvg <sg|dg> [--csv]")?;
    let csv = args.iter().any(|a| a == "--csv");
    let (params, bg_read, range) = match flavour.as_str() {
        "sg" => (calib::sg_fefet_14nm(), false, (-1.0, 3.0)),
        "dg" => (calib::dg_fefet_14nm(), true, (-2.0, 4.0)),
        other => return Err(format!("flavour is sg or dg, got {other:?}")),
    };
    let g = NodeId::GROUND;
    let mut dev = Fefet::new("probe", g, g, g, g, params);
    let mut out = String::new();
    let mut curves = Vec::new();
    for state in [VthState::Lvt, VthState::Mvt, VthState::Hvt] {
        dev.program(state);
        let sweep = if bg_read {
            dev.sweep_bg(range, 81, 0.1, 300.0)
        } else {
            dev.sweep_fg(range, 81, 0.1, 300.0)
        };
        curves.push((state, sweep));
    }
    if csv {
        let _ = writeln!(out, "vg,id_lvt,id_mvt,id_hvt");
        for i in 0..81 {
            let _ = writeln!(
                out,
                "{:.4},{:.4e},{:.4e},{:.4e}",
                curves[0].1[i].0, curves[0].1[i].1, curves[1].1[i].1, curves[2].1[i].1
            );
        }
        print!("{out}");
    } else {
        for (state, sweep) in &curves {
            let vth = vth_constant_current(sweep, 1e-7);
            let ss = subthreshold_slope(sweep, 1e-9, 1e-7);
            println!(
                "{state:?}: Vth = {}  SS = {}",
                vth.map_or("n/a".into(), |v| format!("{v:.2} V")),
                ss.map_or("n/a".into(), |s| format!("{:.0} mV/dec", s * 1e3)),
            );
        }
    }
    Ok(())
}

fn export(args: &[String]) -> CliResult {
    let [design, stored, query] = args else {
        return Err("usage: ferrotcam export <design> <stored-word> <query-bits>".into());
    };
    let design = parse_design(design)?;
    let stored = parse_word(stored)?;
    let query = parse_query(query, stored.len())?;
    let sim = build(design, &stored, &query)?;
    println!(
        "{}",
        sim.circuit
            .to_spice(&format!("{} row: stored {stored}", design.name()))
    );
    Ok(())
}

fn table_lookup(args: &[String]) -> CliResult {
    let [path, query] = args else {
        return Err("usage: ferrotcam table <file> <query-bits>".into());
    };
    let tcam =
        ferrotcam::table_io::load_table(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let q = parse_query(query, tcam.width())?;
    let outcome = tcam.search(&q);
    println!(
        "{} rows, {} match(es), step-1 miss rate {:.0}%",
        tcam.len(),
        outcome.matches.len(),
        outcome.step1_miss_rate() * 100.0
    );
    for &row in &outcome.matches {
        println!("  row {row}: {}", tcam.row(row).expect("row exists"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> CliResult {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn design_aliases_parse() {
        assert_eq!(parse_design("2sg").unwrap(), DesignKind::Sg2);
        assert_eq!(parse_design("1.5T1DG").unwrap(), DesignKind::T15Dg);
        assert_eq!(parse_design("CMOS").unwrap(), DesignKind::Cmos16t);
        assert!(parse_design("zz").is_err());
    }

    #[test]
    fn query_validation() {
        assert!(parse_query("0101", 4).is_ok());
        assert!(parse_query("01", 4).is_err());
        assert!(parse_query("01x1", 4).is_err());
    }

    #[test]
    fn designs_and_help_run() {
        run(&["designs"]).unwrap();
        run(&["help"]).unwrap();
        assert!(run(&["bogus"]).is_err());
    }

    #[test]
    fn search_command_end_to_end() {
        run(&["search", "1.5t1dg", "01", "01"]).unwrap();
        run(&["search", "2sg", "10", "01"]).unwrap();
        assert!(run(&["search", "1.5t1dg", "011", "011"]).is_err()); // odd width
    }

    #[test]
    fn margins_command() {
        run(&["margins", "1.5t1dg"]).unwrap();
        assert!(run(&["margins", "2sg"]).is_err());
    }

    #[test]
    fn export_contains_netlist() {
        run(&["export", "cmos", "1", "1"]).unwrap();
    }

    #[test]
    fn table_command_roundtrip() {
        let dir = std::env::temp_dir().join("ferrotcam-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tcam");
        std::fs::write(&path, "10X1\n0000\n").unwrap();
        run(&["table", path.to_str().unwrap(), "1011"]).unwrap();
        assert!(run(&["table", path.to_str().unwrap(), "10"]).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn idvg_both_flavours() {
        run(&["idvg", "sg"]).unwrap();
        run(&["idvg", "dg", "--csv"]).unwrap();
        assert!(run(&["idvg", "xx"]).is_err());
    }
}
