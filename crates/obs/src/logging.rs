//! Leveled logging behind the [`log!`](crate::log!) macro.
//!
//! The level is read once from `POLAR_LOG={error,info,debug}`. Output
//! goes to stderr as `[level polar_blas::params] message`, or into a
//! capture buffer when a test installed one with [`capture_logs`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Log severity, ordered from quietest to chattiest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    /// Unexpected but survivable conditions.
    Error = 0,
    /// One-line lifecycle events (pool started, trace written).
    Info = 1,
    /// Tuning/diagnostic chatter (kernel parameter choices, iterations).
    Debug = 2,
}

impl LogLevel {
    fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env() -> u8 {
    if let Some(v) = std::env::var_os("POLAR_LOG") {
        let v = v.to_string_lossy().to_ascii_lowercase();
        return match v.as_str() {
            "debug" => LogLevel::Debug as u8,
            "info" => LogLevel::Info as u8,
            _ => LogLevel::Error as u8,
        };
    }
    LogLevel::Error as u8
}

#[inline]
fn current_level() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNSET {
        return l;
    }
    let from_env = level_from_env();
    // Racing initializers compute the same value; last store wins.
    LEVEL.store(from_env, Ordering::Relaxed);
    from_env
}

/// Would a message at `level` be emitted?
#[inline]
pub fn log_enabled(level: LogLevel) -> bool {
    current_level() >= level as u8
}

/// Override the level programmatically (takes precedence over the env).
pub fn set_log_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

fn capture_buffer() -> &'static Mutex<Option<Vec<String>>> {
    static BUF: OnceLock<Mutex<Option<Vec<String>>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(None))
}

/// Redirect log output into an in-memory buffer for the guard's lifetime
/// (test helper; capture is process-global, keep such tests serialized).
pub fn capture_logs() -> LogCapture {
    *capture_buffer().lock().unwrap() = Some(Vec::new());
    LogCapture { _private: () }
}

/// Guard returned by [`capture_logs`]; dropping it restores stderr output.
pub struct LogCapture {
    _private: (),
}

impl LogCapture {
    /// Drain the lines captured so far.
    pub fn take(&self) -> Vec<String> {
        capture_buffer().lock().unwrap().as_mut().map(std::mem::take).unwrap_or_default()
    }
}

impl Drop for LogCapture {
    fn drop(&mut self) {
        *capture_buffer().lock().unwrap() = None;
    }
}

/// Emit one formatted message (called by the [`log!`](crate::log!) macro
/// after the level check passed).
pub fn log_message(level: LogLevel, target: &str, args: std::fmt::Arguments<'_>) {
    let line = format!("[{} {}] {}", level.name(), target, args);
    let mut buf = capture_buffer().lock().unwrap();
    match buf.as_mut() {
        Some(lines) => lines.push(line),
        None => eprintln!("{line}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: level + capture are global.
    #[test]
    fn levels_gate_and_capture_collects() {
        let cap = capture_logs();

        set_log_level(LogLevel::Error);
        assert!(log_enabled(LogLevel::Error));
        assert!(!log_enabled(LogLevel::Info));
        assert!(!log_enabled(LogLevel::Debug));
        crate::log!(LogLevel::Debug, "should be dropped");
        assert!(cap.take().is_empty());

        set_log_level(LogLevel::Info);
        assert!(log_enabled(LogLevel::Info));
        assert!(!log_enabled(LogLevel::Debug));

        set_log_level(LogLevel::Debug);
        assert!(log_enabled(LogLevel::Debug));
        crate::log!(LogLevel::Debug, "tuned {} to {}", "mc", 128);
        let lines = cap.take();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("[debug "), "{}", lines[0]);
        assert!(lines[0].contains("tuned mc to 128"), "{}", lines[0]);

        set_log_level(LogLevel::Error);
    }
}
