//! The §III-B taint scenario, live: `volcano_taint` ported from re-query
//! to subscriptions.
//!
//! The one-shot version archives everything, *then* hunts taint with a
//! fresh closure query — and must re-run it from scratch to notice new
//! descendants. Here the archive keeps growing on a writer thread while
//! the monitoring side holds two standing statements:
//!
//! * `WATCH DESCENDANTS OF <suspect window>` — fires the moment any
//!   product derives, transitively, from the miscalibrated station's
//!   window (catch-up covers products that already existed);
//! * `SUBSCRIBE FIND WHERE eruption_window = true …` — feeds a live
//!   alerting stage that pages the volcanologist on eruption-grade
//!   amplitude as windows arrive.
//!
//! The catch-up/tail handoff is exactly-once, so the delivered taint set
//! equals a final re-query — asserted at the end.
//!
//! ```sh
//! cargo run --example live_taint
//! ```

use pass::core::{Event, Pass};
use pass::model::{keys, Attributes, SiteId, Timestamp, ToolDescriptor};
use pass::sensor::volcano::{generate, VolcanoConfig};
use pass::sensor::{AlertRule, AlertStage};
use std::time::Duration;

fn main() {
    let pass = Pass::open_memory(SiteId(9));

    // Archive the first hour of seismic windows (the "already captured"
    // part of the scenario) and denoise it with v1.0.
    let config = VolcanoConfig {
        volcano: "vesuvius".to_owned(),
        stations: 6,
        eruptions: vec![(20, 6)],
        seed: 19,
        ..VolcanoConfig::default()
    };
    let specs = generate(&config, Timestamp::ZERO, 36);
    let (first_half, second_half) = specs.split_at(specs.len() / 2);
    let mut raw_ids = Vec::new();
    for spec in first_half {
        raw_ids.push(
            pass.capture(spec.attrs.clone(), spec.readings.clone(), spec.at).expect("capture"),
        );
    }
    let mut denoised = Vec::new();
    for (i, &raw) in raw_ids.iter().enumerate() {
        denoised.push(
            pass.derive(
                &[raw],
                &ToolDescriptor::new("denoise", "1.0"),
                Attributes::new().with(keys::DOMAIN, "volcano").with(keys::TYPE, "denoised"),
                vec![],
                Timestamp(20_000_000 + i as u64),
            )
            .expect("derive denoised"),
        );
    }
    println!("archived {} windows, denoised {}", raw_ids.len(), denoised.len());

    // Station 30002 is discovered miscalibrated. Open the live taint
    // watch NOW — mid-scenario, with more data still to come.
    let suspect = pass
        .query_text(r#"FIND WHERE station.id = 30002 AND type = "seismic_window" LIMIT 1"#)
        .expect("suspect query")
        .ids()[0];
    // Queue bound sized to the incoming burst: the writer below lands a
    // hundred-plus commits while we drain; the default 64-commit bound
    // would shed the oldest ones as Event::Lagged (ingest never blocks),
    // which is the wrong trade for an auditor that must see everything.
    let watch =
        pass::query::parse_subscribe(&format!("WATCH DESCENDANTS OF ts:{}", suspect.full_hex()))
            .expect("statement");
    let mut taint_watch = pass.subscribe_with(&watch.query, 4_096).expect("watch");

    // And the eruption alert feed, wired into the sensor pipeline's live
    // alerting stage.
    let feed = pass::query::parse_subscribe(r#"SUBSCRIBE FIND WHERE eruption_window = true"#)
        .expect("statement");
    let mut alert_feed = pass.subscribe_with(&feed.query, 4_096).expect("subscribe");
    let mut alerts = AlertStage::new(vec![AlertRule::at_least(
        "eruption-grade amplitude",
        "peak_amplitude_um",
        50.0,
    )]);

    // Writer thread: the rest of the archive arrives while we monitor —
    // raw windows in group commits, then the analysis pipeline over
    // everything (denoise v1.1 for the new half, then a daily summary).
    std::thread::scope(|s| {
        let pass = &pass;
        let first_denoised = denoised.clone();
        let writer = s.spawn(move || {
            let late_raw = pass
                .capture_batch(
                    second_half
                        .iter()
                        .map(|spec| (spec.attrs.clone(), spec.readings.clone(), spec.at)),
                )
                .expect("late capture batch");
            let mut all_denoised = first_denoised;
            for (i, &raw) in late_raw.iter().enumerate() {
                all_denoised.push(
                    pass.derive(
                        &[raw],
                        &ToolDescriptor::new("denoise", "1.1"),
                        Attributes::new()
                            .with(keys::DOMAIN, "volcano")
                            .with(keys::TYPE, "denoised"),
                        vec![],
                        Timestamp(21_000_000 + i as u64),
                    )
                    .expect("derive denoised v1.1"),
                );
            }
            pass.derive(
                &all_denoised,
                &ToolDescriptor::new("daily-summary", "2.0"),
                Attributes::new().with(keys::DOMAIN, "volcano").with(keys::TYPE, "daily_summary"),
                vec![],
                Timestamp(30_000_000),
            )
            .expect("derive summary");
        });

        // Monitoring side: drain both feeds round-robin (never camp on
        // one stream while the other's queue fills) until the writer has
        // finished AND both streams are drained — checking the join
        // handle, not a quiet-time heuristic, so a descheduled writer
        // can't race the final assertions.
        let mut tainted = std::collections::BTreeSet::new();
        let mut caught_up_taint = 0usize;
        let mut writer_done = false;
        loop {
            let mut progressed = false;
            while let Some(event) = taint_watch.try_next() {
                progressed = true;
                match event {
                    Event::Match(record) => {
                        tainted.insert(record.id);
                    }
                    Event::CaughtUp { .. } => caught_up_taint = tainted.len(),
                    Event::Lagged(n) => panic!("taint watch lagged {n}"),
                }
            }
            while let Some(event) = alert_feed.try_next() {
                progressed = true;
                match event {
                    Event::Match(record) => {
                        for alert in alerts.observe(&record) {
                            println!(
                                "ALERT {}: {} at {} ({:?})",
                                alert.rule, alert.subject, alert.at.0, alert.value
                            );
                        }
                    }
                    Event::CaughtUp { .. } => {}
                    Event::Lagged(n) => panic!("alert feed lagged {n}"),
                }
            }
            if !progressed {
                if writer_done {
                    break; // writer joined and both queues drained dry
                }
                if writer.is_finished() {
                    writer_done = true; // one more drain pass, then stop
                } else {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        writer.join().expect("writer thread");
        println!(
            "\ntaint closure: {} products already existed at watch time (catch-up), \
             {} detected live as they were derived",
            caught_up_taint,
            tainted.len() - caught_up_taint
        );
        println!(
            "eruption feed: {} windows inspected, {} alerts raised",
            alerts.seen(),
            alerts.raised()
        );

        // Exactly-once handoff: the delivered taint set equals a fresh
        // closure re-query at the end.
        let requery: std::collections::BTreeSet<_> = pass
            .query_text(&format!("FIND DESCENDANTS OF ts:{}", suspect.full_hex()))
            .expect("requery")
            .ids()
            .into_iter()
            .collect();
        assert_eq!(tainted, requery, "live watch diverged from the final re-query");
        println!("verified: live taint set == final re-query ({} products)", requery.len());
        assert!(alerts.raised() > 0, "the eruption episode must page someone");
    });
}
