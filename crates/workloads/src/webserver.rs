//! The web server workload (paper §6.3, Figure 9): a knot-like static
//! web server driven by an httperf-like open-loop client.
//!
//! Requests arrive in an open loop at a configured rate; each request is
//! served from the SPECweb99 file set and transfers its response over
//! the simulated network path of the measured configuration. Per-packet
//! network costs come from *measured* netperf breakdowns of the same
//! system; the server-side connection cost (accept, HTTP parse, VFS
//! lookup, scheduling — knot is a lightweight user-level-threaded
//! server) is a calibrated constant. Responses that cannot be served at
//! the offered rate are discarded by the client after a timeout, which
//! wastes a fraction of the work and gives the gentle post-saturation
//! decline visible in the paper's figure.

use crate::netperf::{run_netperf, Direction};
use crate::specweb::FileSet;
use twindrivers::{Config, SystemError, CPU_HZ};

/// Server-side CPU cost per request excluding network processing
/// (connection setup/teardown, HTTP parsing, file lookup in knot).
pub const SERVER_BASE_CYCLES: f64 = 250_000.0;

/// TCP maximum segment payload used to packetise responses.
pub const MSS: f64 = 1448.0;

/// Fraction of the work wasted per unit of overload (client timeouts
/// discard responses the server already paid for).
pub const OVERLOAD_WASTE: f64 = 0.06;

/// One point of the Figure 9 curve.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WebPoint {
    /// Offered request rate (requests/second).
    pub rate: f64,
    /// Response goodput in Mb/s.
    pub goodput_mbps: f64,
    /// Requests actually served per second.
    pub served: f64,
}

/// The per-configuration web server model, parameterised by measured
/// per-packet costs.
#[derive(Clone, Debug)]
pub struct WebServerModel {
    /// Configuration modeled.
    pub config: Config,
    /// Measured transmit cycles/packet.
    pub tx_cpp: f64,
    /// Measured receive cycles/packet.
    pub rx_cpp: f64,
    /// Mean response size in bytes (sampled from the file set).
    pub mean_bytes: f64,
    /// Mean cycles per request.
    pub cycles_per_request: f64,
}

impl WebServerModel {
    /// Builds the model by measuring the configuration's per-packet
    /// costs and sampling the file set.
    ///
    /// # Errors
    ///
    /// Propagates system build/measurement errors.
    pub fn measure(
        config: Config,
        packets: u64,
        fileset_seed: u64,
    ) -> Result<WebServerModel, SystemError> {
        let tx = run_netperf(config, Direction::Transmit, packets)?;
        let rx = run_netperf(config, Direction::Receive, packets)?;
        let mut fs = FileSet::new(fileset_seed);
        let mean_bytes = fs.empirical_mean(20_000);
        Ok(WebServerModel::from_parts(
            config,
            tx.breakdown.total(),
            rx.breakdown.total(),
            mean_bytes,
        ))
    }

    /// Builds the model from explicit per-packet costs.
    pub fn from_parts(config: Config, tx_cpp: f64, rx_cpp: f64, mean_bytes: f64) -> WebServerModel {
        // Packetisation of the mean request:
        //   transmit: response data + SYN-ACK + FIN + headers;
        //   receive: SYN, request, delayed ACKs (one per two data
        //   segments), FIN-ACK.
        let data_pkts = (mean_bytes / MSS).ceil() + 1.0; // + HTTP headers
        let tx_pkts = data_pkts + 3.0;
        let rx_pkts = 2.0 + (data_pkts / 2.0).ceil() + 2.0;
        let cycles_per_request = SERVER_BASE_CYCLES + tx_pkts * tx_cpp + rx_pkts * rx_cpp;
        WebServerModel {
            config,
            tx_cpp,
            rx_cpp,
            mean_bytes,
            cycles_per_request,
        }
    }

    /// Maximum request rate the CPU sustains.
    pub fn capacity(&self) -> f64 {
        CPU_HZ / self.cycles_per_request
    }

    /// Peak response throughput in Mb/s.
    pub fn peak_mbps(&self) -> f64 {
        self.capacity() * self.mean_bytes * 8.0 / 1e6
    }

    /// Evaluates one offered rate.
    pub fn point(&self, rate: f64) -> WebPoint {
        let cap = self.capacity();
        let served = if rate <= cap {
            rate
        } else {
            // Overload: timeouts waste a fraction of the capacity that
            // grows with the excess offered load.
            let overload = rate / cap - 1.0;
            cap / (1.0 + OVERLOAD_WASTE * overload)
        };
        WebPoint {
            rate,
            goodput_mbps: served * self.mean_bytes * 8.0 / 1e6,
            served,
        }
    }

    /// Sweeps request rates, producing the Figure 9 series.
    pub fn sweep(&self, rates: impl IntoIterator<Item = f64>) -> Vec<WebPoint> {
        rates.into_iter().map(|r| self.point(r)).collect()
    }
}

/// Runs the full web server experiment for one configuration.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn run_webserver(
    config: Config,
    rates: &[f64],
    packets: u64,
) -> Result<(WebServerModel, Vec<WebPoint>), SystemError> {
    let model = WebServerModel::measure(config, packets, 99)?;
    let pts = model.sweep(rates.iter().copied());
    Ok((model, pts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Model built from the paper's own per-packet numbers must land
    /// near the paper's peak throughputs (855/712/572/269 Mb/s).
    #[test]
    fn peaks_from_paper_cpps() {
        let linux = WebServerModel::from_parts(Config::NativeLinux, 5900.0, 11166.0, 14675.0);
        let twin = WebServerModel::from_parts(Config::TwinDrivers, 9972.0, 20089.0, 14675.0);
        let domu = WebServerModel::from_parts(Config::XenGuest, 21159.0, 35905.0, 14675.0);
        assert!(
            (600.0..1100.0).contains(&linux.peak_mbps()),
            "linux peak {:.0}",
            linux.peak_mbps()
        );
        assert!(twin.peak_mbps() < linux.peak_mbps());
        assert!(domu.peak_mbps() < twin.peak_mbps());
        // Paper: "more than factor of 2" over domU. The per-packet model
        // yields ~1.5x here because it does not capture baseline Xen's
        // connection-rate collapse under load (the paper notes domU
        // "could not sustain high connection rates").
        assert!(
            twin.peak_mbps() / domu.peak_mbps() > 1.4,
            "twin {:.0} vs domU {:.0}",
            twin.peak_mbps(),
            domu.peak_mbps()
        );
    }

    #[test]
    fn curve_rises_then_plateaus() {
        let m = WebServerModel::from_parts(Config::NativeLinux, 5900.0, 11166.0, 14675.0);
        let pts = m.sweep((1..=20).map(|i| i as f64 * 1000.0));
        // Linear region: goodput tracks offered rate.
        assert!((pts[1].goodput_mbps - 2.0 * pts[0].goodput_mbps).abs() < 1.0);
        // Saturation: last points below the peak and non-increasing.
        let last = pts.last().unwrap();
        assert!(last.goodput_mbps <= m.peak_mbps() + 1.0);
        let idx_cap = pts.iter().position(|p| p.served < p.rate).unwrap();
        assert!(idx_cap > 2, "saturates after a few thousand req/s");
        // Mild decline after saturation (timeout waste).
        assert!(pts[idx_cap + 2].goodput_mbps <= pts[idx_cap].goodput_mbps);
    }

    #[test]
    fn measured_models_preserve_ordering() {
        let linux = WebServerModel::measure(Config::NativeLinux, 40, 1).unwrap();
        let twin = WebServerModel::measure(Config::TwinDrivers, 40, 1).unwrap();
        let domu = WebServerModel::measure(Config::XenGuest, 40, 1).unwrap();
        assert!(linux.peak_mbps() > twin.peak_mbps());
        assert!(twin.peak_mbps() > 1.4 * domu.peak_mbps());
    }
}
