//! Output checks applied to every image and wavefield the benchmark gets
//! back. A failed check fails the shot it belongs to.

use crate::adapter::Seismogram;

/// Every value finite.
pub fn finite(xs: &[f32]) -> Result<(), String> {
    match xs.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("non-finite value {} at {i}", xs[i])),
    }
}

/// Every recorded sample finite.
pub fn finite_record(s: &Seismogram) -> Result<(), String> {
    (0..s.n_receivers()).try_for_each(|r| finite(s.trace(r)))
}

/// Bitwise equality of two outputs that must be identical.
pub fn identical(what: &str, a: &[f32], b: &[f32]) -> Result<(), String> {
    let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("{what}: outputs differ bitwise"))
    }
}

/// Rows on each side a peak's prominence is measured against.
const SHOULDER: usize = 4;
/// Largest allowed distance from the imaged reflector to an interface,
/// cells.
pub const TOL: usize = 4;

/// The most prominent local maximum of a depth profile between rows
/// `nz/4` and `nz − nz/8` must lie within [`TOL`] cells of one of
/// `interfaces`. Rows above the window hold the source and receiver
/// artifacts of cross-correlation imaging; rows below it, the absorbing
/// layer. A peak's prominence is its height above the higher of the lowest
/// values within [`SHOULDER`] rows on either side, so a bump on the
/// decaying tail of the near-surface artifact ranks below a reflector.
pub fn reflector(profile: &[f32], interfaces: &[usize]) -> Result<(), String> {
    let nz = profile.len();
    let lo = (nz / 4).max(SHOULDER);
    let hi = nz.saturating_sub((nz / 8).max(SHOULDER + 1));
    let low = |r: std::ops::Range<usize>| profile[r].iter().copied().fold(f32::MAX, f32::min);
    let peak = (lo..hi)
        .filter(|&z| profile[z] >= profile[z - 1] && profile[z] > profile[z + 1])
        .map(|z| {
            let base = low(z - SHOULDER..z).max(low(z + 1..z + 1 + SHOULDER));
            (z, profile[z] - base)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let Some((z, _)) = peak else {
        return Err("no peak in the depth profile".into());
    };
    let d = interfaces
        .iter()
        .map(|&i| i.abs_diff(z))
        .min()
        .unwrap_or(usize::MAX);
    if d > TOL {
        return Err(format!(
            "image peak at z = {z} is {d} cells from the nearest interface {interfaces:?}"
        ));
    }
    Ok(())
}
