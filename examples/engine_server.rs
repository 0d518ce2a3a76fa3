//! Serving releases: boot the hcc-engine worker pool, expose it over
//! loopback TCP, and drive it with the bundled client — the same
//! wire round-trip `hcc serve` / `hcc submit` perform.
//!
//! ```sh
//! cargo run --example engine_server
//! ```

use std::sync::Arc;

use hccount::engine::{
    protocol::SubmitParams, serve_reactor, Client, Engine, EngineConfig, ReactorConfig,
};

fn main() -> std::io::Result<()> {
    // A tiny two-state census: the tables a client would read from
    // disk (`hcc generate` writes the same three files).
    let hierarchy_csv = "region,parent\ncountry,\nVA,country\nMD,country\n";
    let groups_csv = "group_id,region_name\ng0,VA\ng1,VA\ng2,VA\ng3,MD\ng4,MD\n";
    let entities_csv = "entity_id,group_id\n\
        e0,g0\ne1,g1\ne2,g1\ne3,g2\ne4,g2\ne5,g2\ne6,g2\n\
        e7,g3\ne8,g4\ne9,g4\ne10,g4\n";

    // Server side: a 2-worker engine behind an ephemeral loopback port.
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let server = serve_reactor(Arc::new(engine), "127.0.0.1:0", ReactorConfig::default())?;
    println!("engine listening on {}", server.addr());

    // Client side: submit, then block for the release.
    let mut client = Client::connect(server.addr())?;
    let params = SubmitParams {
        epsilon: 1.0,
        method: "hc".into(),
        bound: 100,
        seed: 7,
        handle: None,
    };
    let id = client
        .submit(&params, hierarchy_csv, groups_csv, entities_csv)?
        .expect("submission accepted");
    println!("submitted {id}, status: {}", client.status(id)?);
    let release = client.wait(id)?.expect("release succeeded");
    println!("released CSV:\n{}", release.csv);

    // ε-sweep workflow: load the tables once into the prepared
    // registry, then sweep a budget grid over the handle — the server
    // never re-parses the tables and streams each ε as it finishes.
    let handle = client
        .prepare(hierarchy_csv, groups_csv, entities_csv)?
        .expect("tables accepted");
    println!("prepared {handle}");
    client.sweep(&params, handle, &[0.5, 1.0, 2.0], |eps, result| {
        let r = result.expect("sweep point succeeded");
        println!(
            "eps={eps}: {} rows ({})",
            r.csv.lines().count().saturating_sub(1),
            if r.from_cache {
                "cache hit"
            } else {
                "computed"
            }
        );
    })?;
    client.unprepare(handle)?.expect("handle released");

    // The same request again — served bit-identically from the cache.
    let id2 = client
        .submit(&params, hierarchy_csv, groups_csv, entities_csv)?
        .expect("submission accepted");
    let cached = client.wait(id2)?.expect("release succeeded");
    assert_eq!(cached.csv, release.csv);
    println!(
        "repeat request was a cache {} — {}",
        if cached.from_cache { "hit" } else { "miss" },
        client.stats()?
    );

    client.quit()?;
    server.shutdown();
    Ok(())
}
