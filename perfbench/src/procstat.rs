//! Process counters read from `/proc/self`: CPU time over a run and the
//! resident-set high-water mark.

/// Clock ticks per second of the `utime`/`stime` fields (Linux `USER_HZ`,
/// 100 on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Peak resident set size of the process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
