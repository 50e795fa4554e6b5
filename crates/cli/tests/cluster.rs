//! `ssr-cli run` rejects a cluster whose slot count overflows `u32`
//! instead of wrapping it into a vast allocation.

use std::process::Command;

#[test]
fn overflowing_slot_count_is_a_bad_cluster() {
    let output = Command::new(env!("CARGO_BIN_EXE_ssr-cli"))
        .args(["run", "--cluster", "100000x100000", "--bg", "maponly:tasks=16,secs=10"])
        .output()
        .expect("ssr-cli starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bad cluster: slot count overflows u32"), "{stderr}");
}
