//! Machine metadata recorded with every result: core count, CPU model and
//! cache sizes, read from the CPU itself (no files outside the checkout).

/// Usable cores of this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"release"` or `"debug"`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    // SAFETY: the `cpuid` instruction exists on every x86_64 CPU and only
    // reads identification registers.
    #[allow(unused_unsafe)]
    let r = unsafe { std::arch::x86_64::__cpuid_count(leaf, sub) };
    [r.eax, r.ebx, r.ecx, r.edx]
}

/// CPU brand string.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004)
        .flat_map(|leaf| cpuid(leaf, 0))
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

/// Size of one data or unified cache at `level`, KiB, from the
/// deterministic cache-parameter leaf (leaf 4 on Intel, 0x8000_001D on
/// AMD; both share the layout).
#[cfg(target_arch = "x86_64")]
pub fn cache_kib(level: u32) -> Option<u64> {
    let v = cpuid(0, 0);
    let amd = v[1] == u32::from_le_bytes(*b"Auth");
    let leaf = if amd { 0x8000_001D } else { 4 };
    for sub in 0..16 {
        let [a, b, c, _] = cpuid(leaf, sub);
        let kind = a & 0x1f;
        if kind == 0 {
            break;
        }
        if (kind == 1 || kind == 3) && (a >> 5) & 0x7 == level {
            let ways = u64::from((b >> 22) & 0x3ff) + 1;
            let parts = u64::from((b >> 12) & 0x3ff) + 1;
            let line = u64::from(b & 0xfff) + 1;
            let sets = u64::from(c) + 1;
            return Some(ways * parts * line * sets / 1024);
        }
    }
    None
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".into()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cache_kib(_level: u32) -> Option<u64> {
    None
}
