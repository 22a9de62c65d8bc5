//! `/metrics` scraper: totals per metric family and deltas between two
//! scrapes, so a counter is reported for the timed section alone.

use std::collections::BTreeMap;

/// One parsed exposition: every labelled series summed into its family
/// (`gmap_route_forwards_total{peer="a"}` + `{peer="b"}` →
/// `gmap_route_forwards_total`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses a Prometheus text exposition; comment and malformed lines
    /// are skipped.
    pub fn parse(rendered: &str) -> Scrape {
        let mut families = BTreeMap::new();
        for line in rendered.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.trim().parse::<f64>() else {
                continue;
            };
            let family = series.split('{').next().unwrap_or(series).trim();
            *families.entry(family.to_string()).or_insert(0.0) += value;
        }
        Scrape(families)
    }

    /// Adds another server's scrape family by family (fleet totals).
    pub fn merge(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Family total; 0 when the server does not export it (a router has
    /// no replication counters, a replica no forward counters).
    pub fn total(&self, family: &str) -> f64 {
        self.0.get(family).copied().unwrap_or(0.0)
    }

    /// `self − before`, family by family.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.total(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE gmap_cache_hits_total counter\n\
        gmap_cache_hits_total 3\n\
        gmap_route_forwards_total{peer=\"127.0.0.1:1\"} 2\n\
        gmap_route_forwards_total{peer=\"127.0.0.1:2\"} 5\n\
        gmap_request_latency_seconds{endpoint=\"profile\",quantile=\"0.5\"} 0.001000000\n";
    const AFTER: &str = "gmap_cache_hits_total 10\n\
        gmap_route_forwards_total{peer=\"127.0.0.1:1\"} 4\n\
        gmap_route_forwards_total{peer=\"127.0.0.1:2\"} 9\n\
        gmap_jobs_shed_total 1\n\
        not a metric line\n";

    #[test]
    fn labelled_series_sum_into_their_family() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(s.total("gmap_cache_hits_total"), 3.0);
        assert_eq!(s.total("gmap_route_forwards_total"), 7.0);
        assert_eq!(s.total("gmap_absent_total"), 0.0);
    }

    #[test]
    fn delta_covers_only_the_section_between_two_scrapes() {
        let d = Scrape::parse(AFTER).since(&Scrape::parse(BEFORE));
        assert_eq!(d.total("gmap_cache_hits_total"), 7.0);
        assert_eq!(d.total("gmap_route_forwards_total"), 6.0);
        // A family that first appears after the section started counts
        // from zero.
        assert_eq!(d.total("gmap_jobs_shed_total"), 1.0);
    }

    #[test]
    fn fleet_totals_merge_per_family() {
        let mut total = Scrape::parse(BEFORE);
        total.merge(&Scrape::parse(AFTER));
        assert_eq!(total.total("gmap_cache_hits_total"), 13.0);
        assert_eq!(total.total("gmap_jobs_shed_total"), 1.0);
    }
}
