//! The disabled-recording path of the obs layer.
//!
//! `obs::set_enabled(false)` flips a process-global flag. Inside the lib
//! unit tests it would race every sibling test that records with the flag
//! on, so this check runs in its own test binary, which is its own process.

use ivn_runtime::obs;

#[test]
fn disabled_records_nothing() {
    obs::set_enabled(false);
    let c = obs::counter("test.obs.disabled_counter");
    c.add(5);
    assert_eq!(c.total(), 0);
    let h = obs::histogram("test.obs.disabled_hist");
    h.record(10);
    assert_eq!(h.snapshot().count, 0);
}
