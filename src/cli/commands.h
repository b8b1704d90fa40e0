#ifndef LEAPME_CLI_COMMANDS_H_
#define LEAPME_CLI_COMMANDS_H_

#include "cli/flags.h"
#include "common/status.h"

namespace leapme::cli {

/// `leapme generate`: writes a synthetic multi-source product catalog as
/// TSV. Flags: --domain cameras|headphones|phones|tvs, --sources N,
/// --entities N, --seed N, --out FILE.
Status RunGenerate(const Flags& flags);

/// `leapme evaluate`: trains LEAPME on a fraction of a TSV dataset's
/// sources and reports P/R/F1 (plus best-F1 operating point and average
/// precision) on the remaining sources. Flags: --data FILE,
/// --train-fraction F, --seed N, --embeddings GLOVE_FILE | --domain NAME,
/// --emb-dim N, --reps N, --features origin/kinds, --model-out FILE.
Status RunEvaluate(const Flags& flags);

/// `leapme match`: prints the discovered matches (similarity edges).
/// Trains on a fraction of sources and scores the remaining pairs, or —
/// with --model-in FILE — loads a matcher saved by `evaluate
/// --model-out` and scores every cross-source pair without retraining.
/// Flags as for evaluate, plus --model-in FILE, --threshold T, --limit N.
Status RunMatch(const Flags& flags);

/// `leapme cluster`: full pipeline — train (or load via --model-in),
/// build the similarity graph over all cross-source pairs, star-cluster
/// it and print the clusters. Flags as for evaluate, plus --model-in
/// FILE and --threshold T.
Status RunCluster(const Flags& flags);

/// `leapme serve`: long-lived TCP scoring server over a saved model.
/// Loads the matcher from --model FILE, wraps the embedding model in a
/// bounded LRU cache, and answers line-delimited JSON score / topk /
/// stats requests on --port N, micro-batching concurrent requests into
/// single inference calls (see src/serve/). Flags: --model FILE --port N
/// [--host A] [--max-batch N] [--emb-cache N]
/// [--prop-cache N] [--threads N] plus the evaluate embedding flags
/// (--embeddings | --domain, --emb-dim, --seed).
Status RunServe(const Flags& flags);

/// `leapme stats`: prints dataset statistics (sources, properties,
/// alignment coverage, balance). Flags: --data FILE.
Status RunStats(const Flags& flags);

/// Dispatches to the command handlers; prints usage on empty/unknown
/// command. Returns the process exit code.
int RunCli(int argc, const char* const* argv);

}  // namespace leapme::cli

#endif  // LEAPME_CLI_COMMANDS_H_
