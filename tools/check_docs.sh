#!/usr/bin/env bash
# Docs hygiene checks, run by CI and by the `docs_check` ctest:
#  1. every relative markdown link in README.md / ROADMAP.md / docs/*.md
#     resolves to an existing file (http(s)/mailto/anchor links are skipped);
#  2. drift guard: every bench/bench_*.cc target is documented in
#     docs/BENCHMARKS.md;
#  3. orphan guard: every docs/*.md is reachable from README.md by following
#     relative markdown links (a doc nobody links to is a doc nobody reads);
#  4. API-coverage guard: docs/API.md documents the public serving-stack
#     classes.
#
# Usage: tools/check_docs.sh [repo-root]  (default: cwd)
set -u

root="${1:-.}"
fail=0

# Extracts the (...) targets of markdown inline links from one file.
md_links() {
  grep -oE '\]\([^)]+\)' "$1" 2>/dev/null | sed -e 's/^](//' -e 's/)$//'
}

for path in "$root"/README.md "$root"/ROADMAP.md "$root"/docs/*.md; do
  [ -f "$path" ] || continue
  f="${path#"$root"/}"
  dir=$(dirname "$path")
  # Markdown inline links: the (...) following ](
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$root/$target" ]; then
      echo "broken link in $f: ($link)"
      fail=1
    fi
  done < <(md_links "$path")
done

# --- Orphan guard: every docs/*.md reachable from README.md. ---------------
# Breadth-first walk over relative markdown links starting at README.md;
# any docs page the walk never visits is an orphan.
visited="README.md"
queue="README.md"
while [ -n "$queue" ]; do
  next_queue=""
  for f in $queue; do
    dir=$(dirname "$root/$f")
    while IFS= read -r link; do
      case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      target="${link%%#*}"
      [ -z "$target" ] && continue
      case "$target" in
        *.md) ;;
        *) continue ;;
      esac
      resolved=""
      if [ -e "$dir/$target" ]; then
        resolved=$(realpath --relative-to="$root" "$dir/$target" 2>/dev/null)
      elif [ -e "$root/$target" ]; then
        resolved=$(realpath --relative-to="$root" "$root/$target" 2>/dev/null)
      fi
      [ -z "$resolved" ] && continue
      case " $visited " in
        *" $resolved "*) ;;
        *) visited="$visited $resolved"
           next_queue="$next_queue $resolved" ;;
      esac
    done < <(md_links "$root/$f")
  done
  queue="$next_queue"
done
for path in "$root"/docs/*.md; do
  [ -f "$path" ] || continue
  f="${path#"$root"/}"
  case " $visited " in
    *" $f "*) ;;
    *) echo "orphaned doc: $f is not reachable from README.md"
       fail=1 ;;
  esac
done

benchmarks_doc="$root/docs/BENCHMARKS.md"
if [ ! -f "$benchmarks_doc" ]; then
  echo "docs/BENCHMARKS.md is missing"
  fail=1
else
  for b in "$root"/bench/bench_*.cc; do
    name=$(basename "$b" .cc)
    if ! grep -q "$name" "$benchmarks_doc"; then
      echo "bench target $name is not documented in docs/BENCHMARKS.md"
      fail=1
    fi
  done
fi

# --- API-coverage guard: docs/API.md documents the serving surface. --------
api_doc="$root/docs/API.md"
if [ ! -f "$api_doc" ]; then
  echo "docs/API.md is missing"
  fail=1
else
  for symbol in Gateway ModelRegistry ServingEngine CompiledRuleSet \
                MetricSuite SideStore NamespaceLog DurabilityOptions \
                MetricsSnapshot StageTiming ReviewQueue ReviewSession; do
    if ! grep -q "$symbol" "$api_doc"; then
      echo "docs/API.md does not document $symbol"
      fail=1
    fi
  done
fi

# --- Telemetry guard: docs/OBSERVABILITY.md documents the obs surface. -----
obs_doc="$root/docs/OBSERVABILITY.md"
if [ ! -f "$obs_doc" ]; then
  echo "docs/OBSERVABILITY.md is missing"
  fail=1
else
  for symbol in MetricRegistry MetricsSnapshot ShardedCounter ShardedGauge \
                LatencyHistogram ValueHistogram TraceSpan ExportJson \
                ExportPrometheusText check_metrics_format; do
    if ! grep -q "$symbol" "$obs_doc"; then
      echo "docs/OBSERVABILITY.md does not document $symbol"
      fail=1
    fi
  done
  # Every metric family the gateway registers must be cataloged.
  for family in $(grep -ohE '"learnrisk_[a-z_]+"' "$root"/src/gateway/gateway.cc \
                  | tr -d '"' | sort -u); do
    if ! grep -q "$family" "$obs_doc"; then
      echo "docs/OBSERVABILITY.md does not catalog metric $family"
      fail=1
    fi
  done
fi

# --- Review guard: docs/REVIEW.md documents the review-loop surface. -------
review_doc="$root/docs/REVIEW.md"
if [ ! -f "$review_doc" ]; then
  echo "docs/REVIEW.md is missing"
  fail=1
else
  for symbol in ReviewQueue ReviewSession ReviewItem ReviewOptions \
                ReviewStats ReviewRetrainOptions ReviewRetrainResult \
                DrainReview SubmitReviewLabel RetrainFromReview \
                check_review_bench; do
    if ! grep -q "$symbol" "$review_doc"; then
      echo "docs/REVIEW.md does not document $symbol"
      fail=1
    fi
  done
fi

# --- Tracing guard: docs/TRACING.md documents the decision-obs surface. ----
tracing_doc="$root/docs/TRACING.md"
if [ ! -f "$tracing_doc" ]; then
  echo "docs/TRACING.md is missing"
  fail=1
else
  for symbol in RequestTrace TraceStageSpan TracedDecision TraceBuffer \
                RecentTraces TraceOptions DriftOptions DriftBaseline \
                PsiMicros ExportTracesJson; do
    if ! grep -q "$symbol" "$tracing_doc"; then
      echo "docs/TRACING.md does not document $symbol"
      fail=1
    fi
  done
fi

if [ "$fail" -eq 0 ]; then
  echo "docs checks passed"
fi
exit $fail
