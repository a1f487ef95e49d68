//! Tracking communities in a dynamic social network.
//!
//! The paper's motivating dynamic workload (§1): friendships form and
//! dissolve, and an analyst wants the community structure *now* — without
//! storing the full graph. This example simulates a growth-plus-churn
//! network and shows component counts converging as the network densifies,
//! then fragmenting under heavy deletion ("the great unfriending"). Every
//! community count it prints is checked against a union-find over the
//! simulation's own friendship mirror.
//!
//! ```sh
//! cargo run --release -p gz_bench --example social_network
//! ```

use graph_zeppelin::{GraphZeppelin, GzConfig};
use gz_dsu::Dsu;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const USERS: u64 = 4096;

/// The number of communities the live friendships form, exactly.
fn communities(friendships: &[(u32, u32)]) -> usize {
    let mut dsu = Dsu::new(USERS as usize);
    for &(a, b) in friendships {
        dsu.union(a, b);
    }
    dsu.component_count()
}

fn main() {
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(USERS)).expect("valid config");
    let mut rng = SmallRng::seed_from_u64(2026);

    // Live friendship set mirrored locally so the simulation knows what it
    // can delete. (The mirror is the *simulation's* state; GraphZeppelin
    // itself only sees the stream.)
    let mut friendships: Vec<(u32, u32)> = Vec::new();

    println!("phase 1: growth with churn");
    for step in 1..=5u32 {
        for _ in 0..20_000 {
            if !friendships.is_empty() && rng.gen::<f64>() < 0.15 {
                // Unfriend a random existing pair.
                let i = rng.gen_range(0..friendships.len());
                let (a, b) = friendships.swap_remove(i);
                gz.update(a, b, true);
            } else {
                // Preferential-flavored friend formation: half the time
                // attach near a hub (low ids), otherwise uniform.
                let a = if rng.gen::<bool>() {
                    rng.gen_range(0..USERS as u32 / 16)
                } else {
                    rng.gen_range(0..USERS as u32)
                };
                let b = rng.gen_range(0..USERS as u32);
                if a != b && !friendships.contains(&(a.min(b), a.max(b))) {
                    friendships.push((a.min(b), a.max(b)));
                    gz.update(a, b, false);
                }
            }
        }
        let cc = gz.connected_components().expect("query");
        assert_eq!(cc.num_components(), communities(&friendships), "step {step}");
        println!(
            "  step {step}: {:>6} friendships, {:>4} communities (largest label of user 0: {})",
            friendships.len(),
            cc.num_components(),
            cc.label(0)
        );
    }

    println!("phase 2: mass unfriending of the hubs");
    friendships.retain(|&(a, b)| {
        let touches_hub = a < USERS as u32 / 16 || b < USERS as u32 / 16;
        if touches_hub {
            gz.update(a, b, true);
        }
        !touches_hub
    });
    let cc = gz.connected_components().expect("query");
    assert_eq!(cc.num_components(), communities(&friendships), "after hub removal");
    println!(
        "  after hub removal: {:>6} friendships, {:>4} communities",
        friendships.len(),
        cc.num_components()
    );
    println!(
        "\nstream total: {} updates through {} bytes of sketches",
        gz.updates_ingested(),
        gz.sketch_bytes()
    );
}
