//! The `mdconfig` route planner from the Multidevice companion paper:
//! a global network description (nodes, links with per-device latency and
//! bandwidth) is turned into per-pair fastest routes with a (slightly
//! modified) Dijkstra — including *indirect communication* through an
//! intermediate node, which costs an extra per-hop forwarding charge, and
//! message-size-dependent device selection ("it is possible to use
//! different subdevices for different message sizes").

// Rank/node indices are semantic here; iterating them directly is the
// clearer idiom.
#![allow(clippy::needless_range_loop)]

use std::collections::{BinaryHeap, HashMap};

use crate::cost::Nanos;

/// One physical link of the cluster, usable in both directions.
#[derive(Debug, Clone)]
pub struct Link {
    pub a: usize,
    pub b: usize,
    /// The subdevice (network) this link belongs to, e.g. "sci", "myrinet",
    /// "ethernet".
    pub device: &'static str,
    pub latency_ns: Nanos,
    pub per_byte_ns: f64,
}

impl Link {
    fn cost(&self, msg_bytes: usize) -> Nanos {
        self.latency_ns + (msg_bytes as f64 * self.per_byte_ns).round() as Nanos
    }
}

/// The global network description `mdconfig` parses.
#[derive(Debug, Clone)]
pub struct NetworkDescription {
    pub n_nodes: usize,
    pub links: Vec<Link>,
    /// Per-hop store-and-forward charge on an intermediate node (the
    /// "value for the conversion of a message on the intermediate node"
    /// the paper's configuration language exposes). `None` forbids
    /// indirect communication entirely.
    pub forward_ns: Option<Nanos>,
}

/// One hop of a planned route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub to: usize,
    pub device: &'static str,
}

/// A planned route: hops from source to destination plus its total cost.
#[derive(Debug, Clone)]
pub struct Route {
    pub hops: Vec<Hop>,
    pub cost_ns: Nanos,
}

impl Route {
    /// Direct route (single hop)?
    pub fn is_direct(&self) -> bool {
        self.hops.len() == 1
    }

    /// The device of the first hop — what goes into the Connectiontable.
    pub fn first_device(&self) -> &'static str {
        self.hops[0].device
    }
}

/// The per-node output of the planner: `routes[src][dst]`.
#[derive(Debug)]
pub struct RouteTable {
    pub msg_bytes: usize,
    routes: Vec<Vec<Option<Route>>>,
}

impl RouteTable {
    pub fn route(&self, src: usize, dst: usize) -> Option<&Route> {
        self.routes[src][dst].as_ref()
    }
}

/// Dijkstra from every source at one message size.
pub fn plan_routes(desc: &NetworkDescription, msg_bytes: usize) -> RouteTable {
    // Adjacency: node → [(neighbor, link index)].
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); desc.n_nodes];
    for (i, l) in desc.links.iter().enumerate() {
        adj[l.a].push((l.b, i));
        adj[l.b].push((l.a, i));
    }

    let mut routes: Vec<Vec<Option<Route>>> = Vec::with_capacity(desc.n_nodes);
    for src in 0..desc.n_nodes {
        let mut dist: Vec<Option<Nanos>> = vec![None; desc.n_nodes];
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new(); // node → (prev node, link idx)
        let mut heap: BinaryHeap<std::cmp::Reverse<(Nanos, usize)>> = BinaryHeap::new();
        dist[src] = Some(0);
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist[u] != Some(d) {
                continue;
            }
            for &(v, li) in &adj[u] {
                // Intermediate nodes charge the forwarding cost; if
                // forwarding is disabled only direct neighbours of the
                // source are reachable.
                let forward = if u == src {
                    0
                } else {
                    match desc.forward_ns {
                        Some(f) => f,
                        None => continue,
                    }
                };
                let nd = d + forward + desc.links[li].cost(msg_bytes);
                if dist[v].is_none_or(|cur| nd < cur) {
                    dist[v] = Some(nd);
                    prev.insert(v, (u, li));
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        let mut row: Vec<Option<Route>> = Vec::with_capacity(desc.n_nodes);
        for dst in 0..desc.n_nodes {
            if dst == src {
                row.push(None);
                continue;
            }
            let Some(cost) = dist[dst] else {
                row.push(None);
                continue;
            };
            // Reconstruct hops.
            let mut hops = Vec::new();
            let mut at = dst;
            while at != src {
                let (p, li) = prev[&at];
                hops.push(Hop {
                    to: at,
                    device: desc.links[li].device,
                });
                at = p;
            }
            hops.reverse();
            row.push(Some(Route {
                hops,
                cost_ns: cost,
            }));
        }
        routes.push(row);
    }
    RouteTable { msg_bytes, routes }
}

/// The size-dependent device table for one pair: plan at each size and
/// report `(size, first-hop device)` — the Connectiontable rows `mdconfig`
/// writes per node.
pub fn device_by_size(
    desc: &NetworkDescription,
    src: usize,
    dst: usize,
    sizes: &[usize],
) -> Vec<(usize, &'static str)> {
    sizes
        .iter()
        .filter_map(|&n| {
            plan_routes(desc, n)
                .route(src, dst)
                .map(|r| (n, r.first_device()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The OSCAR-like testbed: 3 nodes; SCI ring segments 0–1 and 1–2;
    /// slow Ethernet everywhere (including the only direct 0–2 link).
    fn oscar() -> NetworkDescription {
        NetworkDescription {
            n_nodes: 3,
            links: vec![
                Link {
                    a: 0,
                    b: 1,
                    device: "sci",
                    latency_ns: 3_000,
                    per_byte_ns: 12.0,
                },
                Link {
                    a: 1,
                    b: 2,
                    device: "sci",
                    latency_ns: 3_000,
                    per_byte_ns: 12.0,
                },
                Link {
                    a: 0,
                    b: 2,
                    device: "ethernet",
                    latency_ns: 125_000,
                    per_byte_ns: 97.0,
                },
            ],
            forward_ns: Some(10_000),
        }
    }

    #[test]
    fn direct_sci_for_neighbours() {
        let rt = plan_routes(&oscar(), 1024);
        let r = rt.route(0, 1).unwrap();
        assert!(r.is_direct());
        assert_eq!(r.first_device(), "sci");
    }

    #[test]
    fn indirect_route_beats_slow_direct_link() {
        // 0→2: two SCI hops + forwarding ≈ 3+12K + 10K + 3+12K ns — far
        // cheaper than 125 µs Ethernet.
        let rt = plan_routes(&oscar(), 1024);
        let r = rt.route(0, 2).unwrap();
        assert_eq!(r.hops.len(), 2, "routes via node 1");
        assert_eq!(
            r.hops,
            vec![
                Hop {
                    to: 1,
                    device: "sci"
                },
                Hop {
                    to: 2,
                    device: "sci"
                },
            ]
        );
        assert!(r.cost_ns < 125_000);
    }

    #[test]
    fn forwarding_disabled_forces_direct() {
        let mut d = oscar();
        d.forward_ns = None;
        let rt = plan_routes(&d, 1024);
        let r = rt.route(0, 2).unwrap();
        assert!(r.is_direct());
        assert_eq!(r.first_device(), "ethernet");
    }

    #[test]
    fn expensive_forwarding_flips_to_direct() {
        let mut d = oscar();
        d.forward_ns = Some(10_000_000); // 10 ms per hop: never worth it
        let rt = plan_routes(&d, 1024);
        assert!(rt.route(0, 2).unwrap().is_direct());
    }

    #[test]
    fn device_switches_with_message_size() {
        // Two parallel links between the same pair: SCI (low latency,
        // modest bandwidth) and cLAN (high latency, high bandwidth).
        let d = NetworkDescription {
            n_nodes: 2,
            links: vec![
                Link {
                    a: 0,
                    b: 1,
                    device: "sci",
                    latency_ns: 8_000,
                    per_byte_ns: 12.2,
                },
                Link {
                    a: 0,
                    b: 1,
                    device: "clan",
                    latency_ns: 65_000,
                    per_byte_ns: 10.7,
                },
            ],
            forward_ns: None,
        };
        let table = device_by_size(&d, 0, 1, &[64, 4 * 1024, 16 * 1024 * 1024]);
        assert_eq!(table[0].1, "sci", "small messages take SCI");
        assert_eq!(table[1].1, "sci");
        assert_eq!(table[2].1, "clan", "bulk flips to cLAN");
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let d = NetworkDescription {
            n_nodes: 3,
            links: vec![Link {
                a: 0,
                b: 1,
                device: "sci",
                latency_ns: 1,
                per_byte_ns: 0.0,
            }],
            forward_ns: Some(0),
        };
        let rt = plan_routes(&d, 1);
        assert!(rt.route(0, 2).is_none());
        assert!(rt.route(2, 0).is_none());
        assert!(rt.route(0, 1).is_some());
    }

    #[test]
    fn routes_are_symmetric_in_cost() {
        let rt = plan_routes(&oscar(), 512);
        assert_eq!(
            rt.route(0, 2).unwrap().cost_ns,
            rt.route(2, 0).unwrap().cost_ns
        );
    }
}
