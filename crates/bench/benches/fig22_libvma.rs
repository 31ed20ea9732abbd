//! Figure 22: update throughput with an optimized (libVMA-style,
//! kernel-bypass) network stack on both client and server.
//!
//! Paper: PMNet provides 3.08x better throughput on kernel stacks and
//! still 3.56x with libVMA — bypass shrinks the stack share, but the
//! remaining server-side time PMNet removes is still substantial.

use pmnet_bench::{banner, micro, row, x};
use pmnet_core::system::DesignPoint;
use pmnet_core::SystemConfig;

fn main() {
    banner(
        "Figure 22",
        "Update throughput with an optimized network stack (8 clients)",
    );
    let tput = |design, config| {
        micro(design, config)
            .clients(8)
            .requests_per_client(1000)
            .warmup(100)
            .run(42)
            .ops_per_sec
    };
    let kernel = SystemConfig::default();
    let vma = SystemConfig::default().with_bypass_stacks();

    let cs = tput(DesignPoint::ClientServer, kernel);
    let pm = tput(DesignPoint::PmnetSwitch, kernel);
    let cs_vma = tput(DesignPoint::ClientServer, vma);
    let pm_vma = tput(DesignPoint::PmnetSwitch, vma);

    row(&["design".into(), "ops/s".into(), "vs own baseline".into()]);
    row(&["Client-Server".into(), format!("{cs:.0}"), x(1.0)]);
    row(&["PMNet".into(), format!("{pm:.0}"), x(pm / cs)]);
    row(&[
        "Client-Server+libVMA".into(),
        format!("{cs_vma:.0}"),
        x(1.0),
    ]);
    row(&[
        "PMNet+libVMA".into(),
        format!("{pm_vma:.0}"),
        x(pm_vma / cs_vma),
    ]);
    println!();
    println!("kernel-stack speedup: {}   (paper: 3.08x)", x(pm / cs));
    println!(
        "bypass-stack speedup: {}   (paper: 3.56x)",
        x(pm_vma / cs_vma)
    );
}
