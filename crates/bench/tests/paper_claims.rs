//! The paper's shape claims (PAPER.md §4), asserted on the experiment
//! drivers at the default seed: who wins, and by roughly what factor.
//! Exact cells are pinned by `BENCH_reproduce.json`; these assertions say
//! which of them must keep their order whatever a change moves.

use omni_bench::experiments::{
    fig7_cell, table4_cell, table5_cell, DisseminateVariant, Measured, System, TABLE4_ROWS,
};

fn table4(system: System, context: &str, data: &str) -> Measured {
    let row = TABLE4_ROWS
        .iter()
        .find(|r| r.context == context && r.data == data)
        .unwrap_or_else(|| panic!("no Table 4 row {context}/{data}"));
    table4_cell(system, row, None).expect("applicable cell")
}

#[test]
fn omni_ble_wifi_30b_latency_is_two_orders_below_sa() {
    // Paper: 16 ms against 2793 ms (175x).
    let omni = table4(System::Omni, "BLE", "WiFi-30B").latency_ms;
    let sa = table4(System::Sa, "BLE", "WiFi-30B").latency_ms;
    assert!(sa >= 100.0 * omni, "SA {sa:.2} ms is not 100x Omni {omni:.2} ms");
}

#[test]
fn ble_ble_energy_orders_sp_below_omni_below_sa() {
    let [sp, omni, sa] =
        [System::Sp, System::Omni, System::Sa].map(|s| table4(s, "BLE", "BLE").energy_ma);
    assert!(sp < omni && omni < sa, "want SP < Omni < SA, got {sp:.2} / {omni:.2} / {sa:.2} mA");
}

#[test]
fn omni_completes_the_disseminate_download_first_at_both_rates() {
    let variants = [DisseminateVariant::Direct, DisseminateVariant::Sp, DisseminateVariant::Sa];
    for rate_bps in [100_000.0, 1_000_000.0] {
        let omni = table5_cell(DisseminateVariant::Omni, rate_bps, None).time_s;
        for v in variants {
            let other = table5_cell(v, rate_bps, None).time_s;
            assert!(omni < other, "@{rate_bps} B/s: Omni {omni:.3} s, {v:?} {other:.3} s");
        }
    }
}

#[test]
fn omni_has_the_lowest_prophet_latency_and_energy() {
    let omni = fig7_cell(System::Omni, None);
    for sys in [System::Sp, System::Sa] {
        let other = fig7_cell(sys, None);
        assert!(
            omni.latency_s < other.latency_s,
            "latency: Omni {:.2} s, {sys} {:.2} s",
            omni.latency_s,
            other.latency_s
        );
        assert!(
            omni.energy_ma < other.energy_ma,
            "energy: Omni {:.2} mA, {sys} {:.2} mA",
            omni.energy_ma,
            other.energy_ma
        );
    }
}
