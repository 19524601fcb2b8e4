//! # btt-netsim — flow-level network simulator
//!
//! The substrate for the BitTorrent-tomography reproduction (Dichev, Reid &
//! Lastovetsky, SC 2012). The paper ran on the Grid'5000 testbed; this crate
//! replaces it with a deterministic flow-level simulator:
//!
//! * [`topology`] — hosts/switches/routers and full-duplex links, including
//!   faithful builders for the paper's Bordeaux site (Fig. 7) and the
//!   Renater-connected multi-site grid (Fig. 6) in [`grid5000`];
//! * [`routing`] — deterministic BFS shortest-path routes as channel lists;
//! * [`synthetic`] — parameterized fat-tree / star-of-stars / heterogeneous
//!   WAN generators for scenario sweeps beyond the paper's datasets;
//! * [`fairness`] — max-min fair bandwidth sharing (progressive filling),
//!   the same fluid model family as SimGrid, which the paper's related work
//!   used for exactly this purpose;
//! * [`engine`] — [`SimNet`](engine::SimNet): bounded flows and open streams
//!   advanced over a virtual clock, with event-accurate completions;
//! * [`perturb`] — deterministic reliability schedules (host churn, link
//!   degradation, seeded cross-traffic) applied at exact clock instants.
//!
//! ## Example: two hosts through a switch
//!
//! ```
//! use btt_netsim::prelude::*;
//! use std::sync::Arc;
//!
//! let mut b = TopologyBuilder::new();
//! let h0 = b.add_host("h0", "site", "cluster");
//! let h1 = b.add_host("h1", "site", "cluster");
//! let sw = b.add_switch("sw", "site");
//! b.link(h0, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
//! b.link(h1, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
//! let topo = Arc::new(b.build().unwrap());
//!
//! let mut net = SimNet::new(topo);
//! let flow = net.start_flow(h0, h1, None, 0);
//! net.advance(1.0);
//! let bytes = net.take_delivered(flow);
//! // One second at 890 Mb/s, minus a hair of startup latency.
//! let expect = Bandwidth::from_mbps(890.0).bytes_per_sec();
//! assert!((bytes - expect).abs() / expect < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod fairness;
pub mod grid5000;
pub mod perturb;
pub mod prof;
pub mod routing;
pub mod synthetic;
pub mod topology;
pub mod units;
pub mod util;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::engine::{Completion, FlowId, FlowStats, SimNet};
    pub use crate::grid5000::{Grid5000, Grid5000Builder, SiteHosts};
    pub use crate::perturb::{
        Perturbation, PerturbationSchedule, ReliabilityCfg, TimedPerturbation,
    };
    pub use crate::routing::RouteTable;
    pub use crate::synthetic::{FatTree, HeteroWan, StarOfStars, WanSite};
    pub use crate::topology::{ChannelId, LinkId, LinkSpec, NodeId, Topology, TopologyBuilder};
    pub use crate::units::{Bandwidth, Bytes, SimTime, FRAGMENT_BYTES};
}
