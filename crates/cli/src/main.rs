//! `ferrotcam` — command-line interface to the ferroTCAM toolkit.
//!
//! ```text
//! ferrotcam search <design> <stored-word> <query-bits>
//! ferrotcam characterize <design> [word-len]
//! ferrotcam margins <design>
//! ferrotcam idvg <sg|dg> [--csv]
//! ferrotcam export <design> <stored-word> <query-bits>
//! ferrotcam designs
//! ferrotcam analyze [--deny] [--json] [--root <dir>]
//! ferrotcam trace [<design> <stored-word> <query-bits>] [--ndjson]
//! ferrotcam trace --serve
//! ```

use std::process::ExitCode;

mod analyze;
mod commands;
mod lint;
mod trace_cmd;

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; exit quietly instead of
    // panicking on the resulting broken pipe (standard CLI behaviour).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // A broken pipe means the consumer went away mid-stream
            // (e.g. `| head`): the output is truncated, so fail — but
            // usage text would only be noise at this point.
            if !e.starts_with("broken pipe") {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
