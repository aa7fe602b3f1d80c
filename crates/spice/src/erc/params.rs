//! Parameter-domain pass: non-finite values, non-positive geometry,
//! and source amplitudes beyond the device write-voltage presets.

use super::{ErcDiagnostic, ErcParam, ParamKind, Rule};
use crate::netlist::{Circuit, Element};
use crate::waveform::Waveform;

/// Headroom allowed above the largest device write voltage before a
/// source amplitude is flagged (covers boosted write pulses and HV
/// driver overdrive in the ±2 V / ±4 V presets).
const WRITE_MARGIN: f64 = 1.15;

fn wave_finite(w: &Waveform) -> bool {
    w.amplitude().is_finite() && w.value(0.0).is_finite()
}

fn flag_value(diags: &mut Vec<ErcDiagnostic>, owner: &str, what: &str, value: f64) {
    diags.push(
        ErcDiagnostic::new(
            Rule::NonFiniteParameter,
            format!("{owner}: {what} = {value:e} is outside its domain"),
        )
        .with_devices(vec![owner.to_string()]),
    );
}

pub(super) fn run(ckt: &Circuit, diags: &mut Vec<ErcDiagnostic>) {
    for e in ckt.elements() {
        match e {
            Element::Resistor { name, ohms, .. } => {
                if !(ohms.is_finite() && *ohms > 0.0) {
                    flag_value(diags, name, "resistance", *ohms);
                }
            }
            Element::Capacitor { name, farads, .. } => {
                if !(farads.is_finite() && *farads >= 0.0) {
                    flag_value(diags, name, "capacitance", *farads);
                }
            }
            Element::VSource { name, wave, .. } => {
                if !wave_finite(wave) {
                    flag_value(diags, name, "source waveform", wave.value(0.0));
                }
            }
        }
    }

    // Device model parameters, as declared through `erc_params`.
    let mut max_write: f64 = 0.0;
    for d in ckt.devices() {
        for ErcParam { name, value, kind } in d.erc_params() {
            match kind {
                ParamKind::Geometry => {
                    if !value.is_finite() {
                        flag_value(diags, d.name(), name, value);
                    } else if value <= 0.0 {
                        diags.push(
                            ErcDiagnostic::new(
                                Rule::NonPositiveGeometry,
                                format!(
                                    "{}: geometry {name} = {value:e} must be positive",
                                    d.name()
                                ),
                            )
                            .with_devices(vec![d.name().to_string()]),
                        );
                    }
                }
                ParamKind::Value => {
                    if !value.is_finite() {
                        flag_value(diags, d.name(), name, value);
                    }
                }
                ParamKind::WriteVoltage => {
                    if !(value.is_finite() && value > 0.0) {
                        flag_value(diags, d.name(), name, value);
                    } else {
                        max_write = max_write.max(value);
                    }
                }
            }
        }
    }

    // Drive-range check: only meaningful when some device declared its
    // programming preset (CMOS-only netlists have no write ceiling).
    if max_write > 0.0 {
        let limit = WRITE_MARGIN * max_write;
        for e in ckt.elements() {
            if let Element::VSource { name, wave, .. } = e {
                let amp = wave.amplitude();
                if amp.is_finite() && amp > limit {
                    diags.push(
                        ErcDiagnostic::new(
                            Rule::WriteVoltageRange,
                            format!(
                                "{name} drives {amp:.3} V but the largest device \
                                 write preset is {max_write:.3} V (limit {limit:.3} V)"
                            ),
                        )
                        .with_devices(vec![name.to_string()]),
                    );
                }
            }
        }
    }
}
