//! Thin shell around [`gz_cli`]: parse, execute, print.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gz_cli::parse_args(&args).and_then(gz_cli::execute) {
        Ok(output) => println!("{output}"),
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage:\n  gz generate (--dataset kronN | --er NxM | --pa NxM) \
                 [--seed S] --out FILE\n  gz info FILE\n  gz components FILE \
                 [--workers N] [--store ram|disk] [--buffering leaf|tree] \
                 [--dir DIR] [--forest]\n                \
                 [--threshold T] [--stats] [--shards K]\n                \
                 [--connect HOST:PORT,... [--respawn]]\n                \
                 [--checkpoint-every N] [--batch-updates N]\n  \
                 gz checkpoint save \
                 FILE --from STREAM [--workers N] [--seed S]\n  gz checkpoint \
                 restore FILE [--forest]\n  \
                 gz shard-worker --listen HOST:PORT \
                 --nodes N --shards K --index I [--seed S]\n                  \
                 [--workers N] [--store ram|disk] [--dir DIR] [--threshold T]\n                  \
                 [--checkpoint shard.ckpt | --resume shard.ckpt]\n  \
                 gz serve (--listen HOST:PORT | --unix SOCK) --nodes N \
                 [--shards K] [--seed S]\n           \
                 [--workers N] [--max-clients C] [--dir DIR [--resume]]\n           \
                 [--checkpoint-ms MS] [--timeout-ms MS] [--staleness U] \
                 [--stats]\n  \
                 gz bipartite FILE"
            );
            std::process::exit(2);
        }
    }
}
