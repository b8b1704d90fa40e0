#include "cli/commands.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>

#include "blocking/candidate_pipeline.h"
#include "common/parallel.h"
#include "common/signal.h"
#include "common/string_util.h"
#include "core/leapme.h"
#include "data/domain.h"
#include "data/generator.h"
#include "data/splitting.h"
#include "data/statistics.h"
#include "data/tsv_io.h"
#include "embedding/caching_model.h"
#include "embedding/synthetic_model.h"
#include "embedding/text_embedding_file.h"
#include "features/feature_registry.h"
#include "graph/similarity_graph.h"
#include "ml/metrics.h"
#include "serve/matcher_service.h"
#include "serve/tcp_server.h"

namespace leapme::cli {

namespace {

constexpr const char* kUsage =
    "usage: leapme <command> [--flag value ...]\n"
    "\n"
    "commands:\n"
    "  generate   write a synthetic multi-source product catalog as TSV\n"
    "             --domain cameras|headphones|phones|tvs|groceries|autos\n"
    "             --sources N --entities N --seed N --out FILE\n"
    "             [--scale-properties N] multi-category catalog with ~N\n"
    "             properties across all domains (ignores --domain)\n"
    "  stats      print dataset statistics           --data FILE\n"
    "  evaluate   train on a fraction of sources, report P/R/F1 on the rest\n"
    "             --data FILE [--train-fraction 0.8] [--seed 7]\n"
    "             [--embeddings GLOVE_FILE | --domain NAME] [--emb-dim 64]\n"
    "             [--features origin/kinds | stage,stage,...] (stages:\n"
    "             char_class_meta, token_class_meta, numeric_value,\n"
    "             value_embedding, name_embedding, string_distances)\n"
    "             [--max-instances-per-property N] (0 = use all values)\n"
    "             [--blocking SPEC] (candidate generation before scoring;\n"
    "             default all-pairs = score everything. Specs: all-pairs,\n"
    "             name-token[:max-freq=F], embedding-lsh[:bands=N:bits=N:\n"
    "             seed=N], union(spec,spec,...))\n"
    "             [--model-out FILE]\n"
    "             [--threads N] (defaults to LEAPME_THREADS env or all\n"
    "             cores; results are identical at any thread count)\n"
    "  match      print discovered matches among the held-out sources\n"
    "             (evaluate flags plus [--threshold 0.5] [--limit 25]);\n"
    "             with --model-in FILE scores all cross-source pairs\n"
    "             using a saved model instead of retraining;\n"
    "             --blocking restricts scoring to blocked candidates\n"
    "  cluster    train (or load --model-in FILE), build the similarity\n"
    "             graph over candidate pairs (--blocking, default\n"
    "             all-pairs) and print star clusters\n"
    "             (evaluate flags plus [--threshold])\n"
    "  serve      serve a saved model over TCP (line-delimited JSON)\n"
    "             --model FILE --port N [--host 127.0.0.1]\n"
    "             (--port 0 binds an ephemeral port, printed on stderr)\n"
    "             [--max-batch 256] (most pairs per scoring call)\n"
    "             [--emb-cache 65536] [--prop-cache 4096] [--threads N]\n"
    "             [--cache-shards 0] (cache partitions, 0 = \n"
    "             $LEAPME_CACHE_SHARDS or 16; power of two)\n"
    "             [--deadline-ms 0] (0 = no per-request deadline)\n"
    "             [--max-connections 0] (0 = unlimited; above the cap,\n"
    "             accepts get one Unavailable reply and a close)\n"
    "             [--max-queue 65536] (admission-queue bound in pairs;\n"
    "             0 = unbounded; overflow gets ResourceExhausted)\n"
    "             [--event-loop-threads 1] (epoll reactor loops, or\n"
    "             $LEAPME_EVENT_LOOP_THREADS)\n"
    "             [--index-data FILE] (load a catalog, build the blocker\n"
    "             index once, and answer index_match requests that score\n"
    "             one property against blocked catalog candidates)\n"
    "             [--blocking SPEC] (index blocker; default\n"
    "             union(name-token,embedding-lsh); requires --index-data)\n"
    "             [--model-watch MS] (poll the model file's mtime every\n"
    "             MS ms and hot-reload on change; 0 = off. SIGHUP and the\n"
    "             'reload' op trigger the same staged reload)\n"
    "             [--canary-threshold 0.5] (max score divergence the\n"
    "             shadow canary tolerates before rejecting a reload)\n"
    "             [--rollback-error-rate 0] (post-swap error fraction\n"
    "             that auto-rolls back to the previous model; 0 = off)\n"
    "             plus the evaluate embedding flags\n";

StatusOr<const data::DomainSpec*> DomainByName(const std::string& name) {
  for (const data::DomainSpec* domain : data::AllDomains()) {
    if (domain->name == name) return domain;
  }
  return Status::InvalidArgument(
      "unknown domain '" + name +
      "' (cameras|headphones|phones|tvs|groceries|autos)");
}

/// Builds the embedding model per the flags: a GloVe-format file, a
/// domain-specific synthetic space, or a hashed-vector-only fallback.
/// `seed` comes from the caller's one --seed parse (ParseMatcherFlags).
StatusOr<std::unique_ptr<embedding::EmbeddingModel>> BuildEmbeddings(
    const Flags& flags, uint64_t seed) {
  LEAPME_ASSIGN_OR_RETURN(const int64_t emb_dim,
                          flags.GetIntInRange("emb-dim", 64, 1, 65536));
  const auto dimension = static_cast<size_t>(emb_dim);
  if (flags.Has("embeddings")) {
    LEAPME_ASSIGN_OR_RETURN(
        auto model, embedding::TextEmbeddingFile::Load(
                        flags.GetString("embeddings", "")));
    return std::unique_ptr<embedding::EmbeddingModel>(
        new embedding::TextEmbeddingFile(std::move(model)));
  }
  std::vector<embedding::SemanticCluster> clusters;
  if (flags.Has("domain")) {
    LEAPME_ASSIGN_OR_RETURN(const data::DomainSpec* domain,
                            DomainByName(flags.GetString("domain", "")));
    clusters = data::DomainClusters(*domain);
  } else {
    // No vocabulary: every word gets a deterministic hashed vector, so
    // identical words still agree. Pass --embeddings or --domain for
    // semantic matching beyond lexical identity.
    std::fprintf(stderr,
                 "note: no --embeddings/--domain given; using hashed "
                 "word vectors only\n");
    clusters.push_back({"placeholder", {"leapme"}});
  }
  embedding::SyntheticModelOptions options;
  options.dimension = dimension;
  options.seed = seed;
  options.oov_policy = embedding::OovPolicy::kHashedVector;
  LEAPME_ASSIGN_OR_RETURN(
      auto model, embedding::SyntheticEmbeddingModel::Build(clusters,
                                                            options));
  return std::unique_ptr<embedding::EmbeddingModel>(
      new embedding::SyntheticEmbeddingModel(std::move(model)));
}

/// Applies --features to `options`. Two syntaxes: one of the nine §V-A
/// origin/kind configs ("both/all", "names/embeddings", ...) or a
/// comma-separated list of registry stage names
/// ("name_embedding,string_distances"), validated against the built-in
/// registry so typos fail here instead of at Fit.
Status ApplyFeatureSelection(const Flags& flags,
                             core::LeapmeOptions* options) {
  const std::string text = flags.GetString("features", "both/all");
  for (const features::FeatureConfig& config :
       features::AllFeatureConfigs()) {
    if (config.ToString() == text) {
      options->feature_config = config;
      return Status::OK();
    }
  }
  const features::FeatureRegistry& registry =
      features::FeatureRegistry::BuiltIn();
  if (text.find('/') == std::string::npos) {
    std::vector<std::string> stages;
    for (const std::string& piece : SplitString(text, ',')) {
      std::string stage(StripAsciiWhitespace(piece));
      if (stage.empty()) continue;
      if (registry.Find(stage) == nullptr) {
        return Status::InvalidArgument(
            "unknown feature stage '" + stage + "' in --features (stages: " +
            registry.StageNames() + ")");
      }
      stages.push_back(std::move(stage));
    }
    if (!stages.empty()) {
      options->feature_stages = std::move(stages);
      return Status::OK();
    }
  }
  return Status::InvalidArgument(
      "unknown --features '" + text +
      "' (expected an origin/kind config such as both/all, "
      "names/embeddings, instances/non-embeddings, or a comma-separated "
      "stage list from: " +
      registry.StageNames() + ")");
}

/// Applies --threads to the global pool. The flag must be a positive
/// integer; when absent the LEAPME_THREADS environment variable or
/// hardware concurrency decides (see DefaultThreadCount).
StatusOr<size_t> ApplyThreadsFlag(const Flags& flags) {
  LEAPME_ASSIGN_OR_RETURN(const int64_t threads,
                          flags.GetIntInRange("threads", 0, 1, 65536));
  if (threads > 0) {
    SetGlobalThreadCount(static_cast<size_t>(threads));
  }
  return static_cast<size_t>(threads);
}

/// The matcher flags shared by evaluate/match/cluster (and, where
/// meaningful, serve), parsed exactly once so every command interprets
/// --seed/--threshold/--blocking/... identically.
struct MatcherFlags {
  core::LeapmeOptions options;
  uint64_t seed = 7;
  double train_fraction = 0.8;
  double negative_ratio = 2.0;
  size_t threads = 0;
  /// --threshold when given; the trained/loaded matcher's (possibly
  /// calibrated) threshold wins otherwise.
  std::optional<double> threshold;
  /// The --blocking candidate-generation spec. The all-pairs default
  /// preserves the pre-pipeline score-everything behavior bit for bit.
  std::string blocking{blocking::kDefaultBlockingSpec};
};

StatusOr<MatcherFlags> ParseMatcherFlags(const Flags& flags) {
  MatcherFlags parsed;
  // --threads beats the LEAPME_THREADS environment variable, which beats
  // hardware concurrency.
  LEAPME_ASSIGN_OR_RETURN(parsed.threads, ApplyThreadsFlag(flags));
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t seed,
      flags.GetIntInRange("seed", 7, 0,
                          std::numeric_limits<int64_t>::max()));
  parsed.seed = static_cast<uint64_t>(seed);
  LEAPME_ASSIGN_OR_RETURN(
      parsed.train_fraction,
      flags.GetDoubleInRange("train-fraction", 0.8, 0.0, 1.0));
  LEAPME_ASSIGN_OR_RETURN(
      parsed.negative_ratio,
      flags.GetDoubleInRange("negative-ratio", 2.0, 0.0, 1e6));
  LEAPME_RETURN_IF_ERROR(ApplyFeatureSelection(flags, &parsed.options));
  if (flags.Has("threshold")) {
    LEAPME_ASSIGN_OR_RETURN(
        const double threshold,
        flags.GetDoubleInRange("threshold", 0.5, 0.0, 1.0));
    parsed.threshold = threshold;
  }
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t max_instances,
      flags.GetIntInRange("max-instances-per-property", 0, 0, 1 << 24));
  parsed.options.pair_features.max_instances_per_property =
      static_cast<size_t>(max_instances);
  parsed.options.threads = parsed.threads;
  parsed.options.decision_threshold = parsed.threshold.value_or(0.5);
  parsed.blocking = flags.GetString("blocking", parsed.blocking);
  return parsed;
}

/// Shared setup of evaluate/match/cluster: load data, build embeddings,
/// then either train LEAPME on a source split or — with --model-in —
/// restore a matcher saved by `evaluate --model-out`. Every session
/// carries the parsed --blocking pipeline; scoring goes candidates-first.
struct TrainedSession {
  data::Dataset dataset{""};
  std::unique_ptr<embedding::EmbeddingModel> model;
  std::unique_ptr<core::LeapmeMatcher> matcher;
  std::unique_ptr<blocking::CandidatePipeline> pipeline;
  MatcherFlags config;
  data::SourceSplit split;
  /// True when the matcher came from --model-in: it has no cached
  /// property features or source split, so callers score candidate
  /// pairs via ScorePairsOn.
  bool from_saved_model = false;
};

StatusOr<TrainedSession> LoadSessionFromModel(const Flags& flags,
                                              MatcherFlags config) {
  TrainedSession session;
  session.from_saved_model = true;
  session.config = std::move(config);
  LEAPME_ASSIGN_OR_RETURN(session.dataset,
                          data::ReadDatasetTsv(flags.GetString("data", "")));
  LEAPME_ASSIGN_OR_RETURN(session.model,
                          BuildEmbeddings(flags, session.config.seed));
  LEAPME_ASSIGN_OR_RETURN(
      core::LeapmeMatcher loaded,
      core::LeapmeMatcher::LoadModel(session.model.get(),
                                     flags.GetString("model-in", "")));
  session.matcher =
      std::make_unique<core::LeapmeMatcher>(std::move(loaded));
  LEAPME_ASSIGN_OR_RETURN(
      session.pipeline,
      blocking::CandidatePipeline::Parse(session.config.blocking,
                                         session.model.get()));
  std::fprintf(stderr, "loaded model %s (input dimension %zu)\n",
               flags.GetString("model-in", "").c_str(),
               session.matcher->input_dimension());
  return session;
}

StatusOr<TrainedSession> TrainFromFlags(const Flags& flags) {
  if (!flags.Has("data")) {
    return Status::InvalidArgument("--data FILE is required");
  }
  LEAPME_ASSIGN_OR_RETURN(MatcherFlags config, ParseMatcherFlags(flags));
  if (flags.Has("model-in")) {
    if (flags.Has("model-out")) {
      return Status::InvalidArgument(
          "--model-in and --model-out are mutually exclusive");
    }
    return LoadSessionFromModel(flags, std::move(config));
  }
  TrainedSession session;
  session.config = std::move(config);
  LEAPME_ASSIGN_OR_RETURN(session.dataset,
                          data::ReadDatasetTsv(flags.GetString("data", "")));
  LEAPME_ASSIGN_OR_RETURN(session.model,
                          BuildEmbeddings(flags, session.config.seed));

  Rng rng(session.config.seed);
  session.split = data::SplitSources(session.dataset,
                                     session.config.train_fraction, rng);
  LEAPME_ASSIGN_OR_RETURN(
      std::vector<data::LabeledPair> training,
      data::BuildTrainingPairs(session.dataset, session.split.train_sources,
                               session.config.negative_ratio, rng));

  session.matcher = std::make_unique<core::LeapmeMatcher>(
      session.model.get(), session.config.options);
  LEAPME_RETURN_IF_ERROR(session.matcher->Fit(session.dataset, training));
  LEAPME_ASSIGN_OR_RETURN(
      session.pipeline,
      blocking::CandidatePipeline::Parse(session.config.blocking,
                                         session.model.get()));
  std::fprintf(stderr,
               "trained on %zu pairs from %zu sources (%zu properties)\n",
               training.size(), session.split.train_sources.size(),
               session.dataset.property_count());

  if (flags.Has("model-out")) {
    LEAPME_RETURN_IF_ERROR(
        session.matcher->SaveModel(flags.GetString("model-out", "")));
    std::fprintf(stderr, "model saved to %s\n",
                 flags.GetString("model-out", "").c_str());
  }
  return session;
}

/// The decision threshold of a session: --threshold when given, else the
/// matcher's (possibly calibrated or restored) threshold.
double SessionThreshold(const TrainedSession& session) {
  return session.config.threshold.value_or(
      session.matcher->decision_threshold());
}

/// Candidate pairs of the session's dataset under its --blocking
/// pipeline. With `restrict_to_test` the list keeps only pairs touching
/// at least one held-out source — under all-pairs this reproduces
/// data::BuildTestPairs' pair list (same ascending enumeration) exactly.
StatusOr<std::vector<data::PropertyPair>> SessionCandidates(
    TrainedSession& session, bool restrict_to_test) {
  LEAPME_ASSIGN_OR_RETURN(std::vector<data::PropertyPair> pairs,
                          session.pipeline->Candidates(session.dataset));
  const size_t blocked = pairs.size();
  if (restrict_to_test) {
    std::vector<bool> is_train(session.dataset.source_count(), false);
    for (data::SourceId source : session.split.train_sources) {
      is_train[source] = true;
    }
    std::erase_if(pairs, [&](const data::PropertyPair& pair) {
      return is_train[session.dataset.property(pair.a).source] &&
             is_train[session.dataset.property(pair.b).source];
    });
  }
  std::fprintf(stderr, "blocking %s: %zu candidate pairs%s\n",
               session.pipeline->spec().c_str(), blocked,
               restrict_to_test
                   ? StrFormat(" (%zu in held-out sources)", pairs.size())
                         .c_str()
                   : "");
  return pairs;
}

/// Scores the session's pairs: the trained path uses the cached property
/// features (ScorePairs); the --model-in path recomputes them for the
/// dataset at hand (ScorePairsOn). Both produce bit-identical scores for
/// the same model and properties.
StatusOr<std::vector<double>> ScoreSessionPairs(
    const TrainedSession& session,
    const std::vector<data::PropertyPair>& pairs) {
  if (session.from_saved_model) {
    return session.matcher->ScorePairsOn(session.dataset, pairs);
  }
  return session.matcher->ScorePairs(pairs);
}

const std::vector<std::string>& EvaluateFlags() {
  static const auto* kFlags = new std::vector<std::string>{
      "data",        "train-fraction", "seed",      "embeddings",
      "domain",      "emb-dim",        "features",  "model-out",
      "model-in",    "threshold",      "negative-ratio",
      "limit",       "threads",        "max-instances-per-property",
      "blocking"};
  return *kFlags;
}

}  // namespace

// Matching-pair count by reference grouping: C(n, 2) per reference group
// minus the same-source pairs. Equivalent to Dataset::CountMatchingPairs
// but linear in properties, which is what makes it usable on the
// million-property scaled catalogs.
size_t CountMatchingPairsGrouped(const data::Dataset& dataset) {
  std::unordered_map<std::string, std::unordered_map<data::SourceId, size_t>>
      groups;
  for (const data::PropertyRecord& record : dataset.properties()) {
    if (record.reference.empty()) continue;
    ++groups[record.reference][record.source];
  }
  size_t count = 0;
  for (const auto& [reference, by_source] : groups) {
    size_t total = 0;
    size_t same_source = 0;
    for (const auto& [source, n] : by_source) {
      total += n;
      same_source += n * (n - 1) / 2;
    }
    count += total * (total - 1) / 2 - same_source;
  }
  return count;
}

Status RunGenerate(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed(
      {"domain", "sources", "entities", "seed", "out",
       "scale-properties"}));
  if (flags.Has("scale-properties")) {
    data::ScaledCatalogOptions options;
    LEAPME_ASSIGN_OR_RETURN(
        const int64_t target,
        flags.GetIntInRange("scale-properties", 1000000, 1, 100000000));
    options.target_properties = static_cast<size_t>(target);
    LEAPME_ASSIGN_OR_RETURN(const int64_t sources,
                            flags.GetIntInRange("sources", 400, 2, 1 << 20));
    options.num_sources = static_cast<size_t>(sources);
    options.sources_per_category =
        std::min<size_t>(options.sources_per_category, options.num_sources);
    LEAPME_ASSIGN_OR_RETURN(const int64_t entities,
                            flags.GetIntInRange("entities", 12, 1, 1 << 16));
    options.entities_per_source = static_cast<size_t>(entities);
    LEAPME_ASSIGN_OR_RETURN(
        const int64_t seed,
        flags.GetIntInRange("seed", 42, 0,
                            std::numeric_limits<int64_t>::max()));
    options.seed = static_cast<uint64_t>(seed);
    LEAPME_ASSIGN_OR_RETURN(data::Dataset dataset,
                            data::GenerateScaledCatalog(options));
    std::string out = flags.GetString("out", "scaled.tsv");
    LEAPME_RETURN_IF_ERROR(data::WriteDatasetTsv(dataset, out));
    std::printf("wrote %s: %zu sources, %zu properties, %zu instances, "
                "%zu matching pairs\n",
                out.c_str(), dataset.source_count(),
                dataset.property_count(), dataset.instance_count(),
                CountMatchingPairsGrouped(dataset));
    return Status::OK();
  }
  LEAPME_ASSIGN_OR_RETURN(
      const data::DomainSpec* domain,
      DomainByName(flags.GetString("domain", "cameras")));
  data::GeneratorOptions options;
  LEAPME_ASSIGN_OR_RETURN(const int64_t sources,
                          flags.GetIntInRange("sources", 8, 1, 1 << 20));
  options.num_sources = static_cast<size_t>(sources);
  LEAPME_ASSIGN_OR_RETURN(const int64_t entities,
                          flags.GetIntInRange("entities", 50, 1, 1 << 24));
  options.min_entities_per_source = static_cast<size_t>(entities);
  options.max_entities_per_source = static_cast<size_t>(entities);
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t seed,
      flags.GetIntInRange("seed", 42, 0,
                          std::numeric_limits<int64_t>::max()));
  options.seed = static_cast<uint64_t>(seed);
  LEAPME_ASSIGN_OR_RETURN(data::Dataset dataset,
                          data::GenerateCatalog(*domain, options));
  std::string out = flags.GetString("out", domain->name + ".tsv");
  LEAPME_RETURN_IF_ERROR(data::WriteDatasetTsv(dataset, out));
  std::printf("wrote %s: %zu sources, %zu properties, %zu instances, "
              "%zu matching pairs\n",
              out.c_str(), dataset.source_count(), dataset.property_count(),
              dataset.instance_count(), dataset.CountMatchingPairs());
  return Status::OK();
}

Status RunStats(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed({"data"}));
  if (!flags.Has("data")) {
    return Status::InvalidArgument("--data FILE is required");
  }
  LEAPME_ASSIGN_OR_RETURN(data::Dataset dataset,
                          data::ReadDatasetTsv(flags.GetString("data", "")));
  std::printf("%s", data::ComputeStatistics(dataset).ToString().c_str());
  return Status::OK();
}

Status RunEvaluate(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed(EvaluateFlags()));
  if (flags.Has("model-in")) {
    // Evaluation needs held-out sources from a train/test split, which a
    // saved model does not carry.
    return Status::InvalidArgument(
        "evaluate retrains from --data; --model-in is for match/cluster/"
        "serve");
  }
  LEAPME_ASSIGN_OR_RETURN(TrainedSession session, TrainFromFlags(flags));

  std::vector<data::LabeledPair> test_pairs =
      data::BuildTestPairs(session.dataset, session.split.train_sources);
  std::vector<data::PropertyPair> pairs;
  std::vector<int32_t> labels;
  for (const auto& labeled : test_pairs) {
    pairs.push_back(labeled.pair);
    labels.push_back(labeled.label);
  }
  // Two-step pipeline: only blocked candidates get scored; a test pair
  // the blocker dropped is predicted non-match with score 0. Under the
  // all-pairs default every test pair is a candidate, reproducing the
  // score-everything evaluation bit for bit.
  LEAPME_ASSIGN_OR_RETURN(
      std::vector<data::PropertyPair> candidates,
      SessionCandidates(session, /*restrict_to_test=*/true));
  const auto pair_less = [](const data::PropertyPair& x,
                            const data::PropertyPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  };
  const auto is_candidate = [&](const data::PropertyPair& pair) {
    return std::binary_search(candidates.begin(), candidates.end(), pair,
                              pair_less);
  };
  std::vector<data::PropertyPair> to_score;
  for (const data::PropertyPair& pair : pairs) {
    if (is_candidate(pair)) to_score.push_back(pair);
  }
  LEAPME_ASSIGN_OR_RETURN(std::vector<double> candidate_scores,
                          session.matcher->ScorePairs(to_score));
  std::vector<double> scores(pairs.size(), 0.0);
  size_t next_scored = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (is_candidate(pairs[i])) scores[i] = candidate_scores[next_scored++];
  }
  std::vector<int32_t> predictions(scores.size());
  const double threshold = session.matcher->decision_threshold();
  for (size_t i = 0; i < scores.size(); ++i) {
    predictions[i] = scores[i] >= threshold ? 1 : 0;
  }
  ml::MatchQuality quality = ml::ComputeQuality(predictions, labels);
  ml::PrPoint best = ml::BestF1Point(scores, labels);
  std::printf("test pairs: %zu (%zu sources held out)\n", pairs.size(),
              session.split.test_sources.size());
  std::printf("at threshold %.2f:  %s\n", threshold,
              quality.ToString().c_str());
  std::printf("best-F1 operating point: threshold %.2f -> P=%.2f R=%.2f "
              "F1=%.2f\n",
              best.threshold, best.precision, best.recall, best.f1);
  std::printf("average precision: %.3f\n",
              ml::AveragePrecision(scores, labels));
  return Status::OK();
}

Status RunMatch(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed(EvaluateFlags()));
  LEAPME_ASSIGN_OR_RETURN(TrainedSession session, TrainFromFlags(flags));

  // Two-step pipeline: the --blocking blocker picks the candidates, the
  // matcher scores only those. The trained path reports matches among
  // the held-out sources; a saved model has no split, so its candidates
  // span all of --data.
  LEAPME_ASSIGN_OR_RETURN(
      std::vector<data::PropertyPair> pairs,
      SessionCandidates(session,
                        /*restrict_to_test=*/!session.from_saved_model));
  LEAPME_ASSIGN_OR_RETURN(std::vector<double> scores,
                          ScoreSessionPairs(session, pairs));

  // Sort matches by score, print the strongest.
  std::vector<size_t> order;
  const double threshold = SessionThreshold(session);
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] >= threshold) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t limit_flag,
      flags.GetIntInRange("limit", 25, 0,
                          std::numeric_limits<int64_t>::max()));
  auto limit = static_cast<size_t>(limit_flag);
  std::printf("%zu matches at threshold %.2f; strongest %zu:\n",
              order.size(), threshold, std::min(limit, order.size()));
  for (size_t rank = 0; rank < order.size() && rank < limit; ++rank) {
    size_t i = order[rank];
    const auto& pa = session.dataset.property(pairs[i].a);
    const auto& pb = session.dataset.property(pairs[i].b);
    std::printf("  %.3f  %s/%s ~ %s/%s\n", scores[i],
                session.dataset.source_name(pa.source).c_str(),
                pa.name.c_str(),
                session.dataset.source_name(pb.source).c_str(),
                pb.name.c_str());
  }
  return Status::OK();
}

Status RunCluster(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed(EvaluateFlags()));
  LEAPME_ASSIGN_OR_RETURN(TrainedSession session, TrainFromFlags(flags));

  const double threshold = SessionThreshold(session);
  // Score the --blocking candidate pairs (all cross-source pairs under
  // the all-pairs default; ScorePairs for the trained path, ScorePairsOn
  // for --model-in) and keep the edges above threshold — the same Sim
  // graph BuildSimilarityGraph produces.
  LEAPME_ASSIGN_OR_RETURN(
      const std::vector<data::PropertyPair> pairs,
      SessionCandidates(session, /*restrict_to_test=*/false));
  LEAPME_ASSIGN_OR_RETURN(std::vector<double> scores,
                          ScoreSessionPairs(session, pairs));
  graph::SimilarityGraph similarity(session.dataset.property_count());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i] >= threshold) {
      similarity.AddEdge(pairs[i].a, pairs[i].b, scores[i]);
    }
  }
  graph::Clusters clusters = graph::StarClusters(similarity, threshold);
  graph::ClusterQuality quality =
      graph::EvaluateClusters(clusters, session.dataset);
  std::printf("similarity graph: %zu edges; %zu non-singleton clusters "
              "(pair-level P=%.2f R=%.2f F1=%.2f)\n",
              similarity.edge_count(), quality.non_singleton_clusters,
              quality.precision, quality.recall, quality.f1);
  for (const auto& cluster : clusters) {
    if (cluster.size() < 2) continue;
    std::printf("  [");
    for (size_t i = 0; i < cluster.size(); ++i) {
      std::printf("%s'%s'", i == 0 ? "" : ", ",
                  session.dataset.property(cluster[i]).name.c_str());
    }
    std::printf("]\n");
  }
  return Status::OK();
}

Status RunServe(const Flags& flags) {
  LEAPME_RETURN_IF_ERROR(flags.CheckAllowed(
      {"model", "port", "host", "max-batch", "emb-cache",
       "prop-cache", "threads", "embeddings", "domain", "emb-dim", "seed",
       "deadline-ms", "max-connections", "max-queue", "index-data",
       "blocking", "event-loop-threads", "cache-shards",
       "model-watch", "canary-threshold", "rollback-error-rate"}));
  if (!flags.Has("model")) {
    return Status::InvalidArgument("--model FILE is required");
  }
  if (flags.Has("blocking") && !flags.Has("index-data")) {
    return Status::InvalidArgument(
        "--blocking for serve requires --index-data FILE (the catalog the "
        "blocker indexes)");
  }
  LEAPME_RETURN_IF_ERROR(ApplyThreadsFlag(flags).status());
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t seed,
      flags.GetIntInRange("seed", 7, 0,
                          std::numeric_limits<int64_t>::max()));
  // Port 0 binds an ephemeral port; the actual port is printed on stderr.
  LEAPME_ASSIGN_OR_RETURN(const int64_t port,
                          flags.GetIntInRange("port", 7207, 0, 65535));
  LEAPME_ASSIGN_OR_RETURN(const int64_t max_batch,
                          flags.GetIntInRange("max-batch", 256, 1, 65536));
  LEAPME_ASSIGN_OR_RETURN(const int64_t emb_cache,
                          flags.GetIntInRange("emb-cache", 65536, 1, 1 << 28));
  LEAPME_ASSIGN_OR_RETURN(const int64_t prop_cache,
                          flags.GetIntInRange("prop-cache", 4096, 1, 1 << 28));
  // 0 = take the partition count from LEAPME_CACHE_SHARDS (default 16);
  // both caches share the setting, each clamped to its own capacity/16.
  LEAPME_ASSIGN_OR_RETURN(const int64_t cache_shards,
                          flags.GetIntInRange("cache-shards", 0, 0, 1024));
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t deadline_ms,
      flags.GetIntInRange("deadline-ms", 0, 0, 3600000));
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t max_connections,
      flags.GetIntInRange("max-connections", 0, 0, 1 << 20));
  // The CLI bounds the admission queue by default (the library leaves it
  // unbounded for embedders): a serve process should shed, not swell.
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t max_queue,
      flags.GetIntInRange("max-queue", 65536, 0, 1 << 28));
  // Hot-reload controls: mtime polling interval, canary strictness, and
  // the post-swap rollback trip (DESIGN.md §18).
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t model_watch_ms,
      flags.GetIntInRange("model-watch", 0, 0, 3600000));
  LEAPME_ASSIGN_OR_RETURN(
      const double canary_threshold,
      flags.GetDoubleInRange("canary-threshold", 0.5, 0.0, 1.0));
  LEAPME_ASSIGN_OR_RETURN(
      const double rollback_error_rate,
      flags.GetDoubleInRange("rollback-error-rate", 0.0, 0.0, 1.0));

  // Every generation (startup and each hot reload) gets its own embedding
  // stack: the base model, its cache, and the matcher live and die
  // together, so a swapped-out model cannot serve vectors through a
  // successor's cache.
  const serve::ModelRegistry::Loader loader =
      [&flags, seed, emb_cache, cache_shards](const std::string& path)
      -> StatusOr<serve::ModelGeneration::Resources> {
    serve::ModelGeneration::Resources resources;
    LEAPME_ASSIGN_OR_RETURN(
        resources.base_model,
        BuildEmbeddings(flags, static_cast<uint64_t>(seed)));
    resources.embedding_cache =
        std::make_unique<embedding::CachingEmbeddingModel>(
            resources.base_model.get(), static_cast<size_t>(emb_cache),
            static_cast<size_t>(cache_shards));
    LEAPME_ASSIGN_OR_RETURN(
        core::LeapmeMatcher matcher,
        core::LeapmeMatcher::LoadModel(resources.embedding_cache.get(),
                                       path));
    resources.matcher =
        std::make_unique<core::LeapmeMatcher>(std::move(matcher));
    return resources;
  };

  serve::RegistryOptions registry_options;
  registry_options.property_cache_capacity = static_cast<size_t>(prop_cache);
  registry_options.property_cache_shards = static_cast<size_t>(cache_shards);
  registry_options.canary_threshold = canary_threshold;
  registry_options.rollback_error_rate = rollback_error_rate;
  serve::ModelRegistry registry(loader, registry_options);
  const std::string model_path = flags.GetString("model", "");
  LEAPME_RETURN_IF_ERROR(registry.Init(model_path));
  {
    const auto generation = registry.Acquire();
    const serve::ModelInfo& info = generation->info();
    std::fprintf(stderr,
                 "loaded model %s (input dimension %zu, schema fingerprint "
                 "%s, format v%d, mtime %lld)\n",
                 model_path.c_str(),
                 generation->matcher().input_dimension(),
                 info.fingerprint.c_str(), info.format_version,
                 static_cast<long long>(info.file_mtime));
  }

  // Catalog-index mode: load the catalog and remember the blocking spec
  // in the registry, which indexes it for the startup generation and
  // re-indexes on every admitted reload. The catalog outlives the server
  // (this scope holds it through ServeUntilShutdown).
  data::Dataset catalog{""};
  if (flags.Has("index-data")) {
    LEAPME_ASSIGN_OR_RETURN(
        catalog, data::ReadDatasetTsv(flags.GetString("index-data", "")));
    const std::string spec = flags.GetString(
        "blocking", std::string(blocking::kDefaultIndexBlockingSpec));
    LEAPME_RETURN_IF_ERROR(registry.AttachCatalog(&catalog, spec));
    std::fprintf(stderr, "catalog index: %zu properties via %s\n",
                 catalog.property_count(), spec.c_str());
  }

  serve::ServiceOptions service_options;
  service_options.max_batch = static_cast<size_t>(max_batch);
  service_options.max_queue_pairs = static_cast<size_t>(max_queue);
  LEAPME_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::MatcherService> service,
      serve::MatcherService::Create(&registry, service_options));

  serve::ServerOptions server_options;
  server_options.host = flags.GetString("host", "127.0.0.1");
  server_options.port = static_cast<int>(port);
  server_options.deadline_ms = deadline_ms;
  server_options.max_connections = static_cast<size_t>(max_connections);
  LEAPME_ASSIGN_OR_RETURN(
      const int64_t event_loop_threads,
      flags.GetIntInRange("event-loop-threads",
                          static_cast<int64_t>(
                              server_options.event_loop_threads),
                          1, 64));
  server_options.event_loop_threads =
      static_cast<size_t>(event_loop_threads);
  serve::TcpServer server(service.get(), server_options);
  LEAPME_RETURN_IF_ERROR(server.Start());
  std::fprintf(stderr,
               "leapme serve listening on %s:%d (event loops %zu, "
               "max-batch %lld); Ctrl-C to stop, SIGHUP to reload\n",
               server_options.host.c_str(), server.port(),
               server_options.event_loop_threads,
               static_cast<long long>(max_batch));

  // Reload triggers outside the protocol: SIGHUP and --model-watch mtime
  // polling, both serviced from the parked ServeUntilShutdown thread.
  InstallReloadSignalHandler();
  int64_t watched_mtime = serve::FileMtimeSeconds(model_path);
  auto last_poll = std::chrono::steady_clock::now();
  const auto run_reload = [&registry](const char* trigger) {
    const StatusOr<serve::ReloadOutcome> outcome = registry.Reload();
    if (outcome.ok()) {
      std::fprintf(stderr,
                   "reload (%s): now serving model version %llu "
                   "(fingerprint %s, canary divergence %.6f over %zu "
                   "pairs)\n",
                   trigger,
                   static_cast<unsigned long long>(outcome->info.version),
                   outcome->info.fingerprint.c_str(),
                   outcome->canary_divergence, outcome->canary_pairs);
    } else {
      std::fprintf(stderr, "reload (%s) rejected: %s\n", trigger,
                   outcome.status().ToString().c_str());
    }
  };
  return server.ServeUntilShutdown([&] {
    if (ConsumeReloadRequest()) {
      run_reload("SIGHUP");
    }
    if (model_watch_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_poll >= std::chrono::milliseconds(model_watch_ms)) {
        last_poll = now;
        const int64_t mtime = serve::FileMtimeSeconds(model_path);
        // Record the new mtime before attempting the reload: a bad file
        // is rejected once, not once per poll until it is fixed.
        if (mtime != 0 && mtime != watched_mtime) {
          watched_mtime = mtime;
          run_reload("model-watch");
        }
      }
    }
  });
}

int RunCli(int argc, const char* const* argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n%s", flags.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  Status status;
  if (flags->command() == "generate") {
    status = RunGenerate(*flags);
  } else if (flags->command() == "stats") {
    status = RunStats(*flags);
  } else if (flags->command() == "evaluate") {
    status = RunEvaluate(*flags);
  } else if (flags->command() == "match") {
    status = RunMatch(*flags);
  } else if (flags->command() == "cluster") {
    status = RunCluster(*flags);
  } else if (flags->command() == "serve") {
    status = RunServe(*flags);
  } else {
    std::fprintf(stderr, "%s", kUsage);
    return flags->command().empty() ? 0 : 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace leapme::cli
