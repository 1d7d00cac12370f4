#!/usr/bin/env bash
# Documentation lint, run as part of tools/check.sh:
#
#   1. Every relative markdown link in tracked *.md files must resolve to
#      a file or directory in the repository (http(s)/mailto/anchor-only
#      links are skipped; "#section" fragments are stripped first).
#   2. Every field of GidsOptions (src/core/gids_loader.h) and of the
#      option structs it inherits — FaultOptions
#      (src/storage/fault_injector.h), IntegrityOptions
#      (src/storage/page_integrity.h), ReplicaOptions
#      (src/storage/replica_set.h), MutationStreamOptions
#      (src/core/mutation_stream.h) — every ServingOptions field
#      (src/serving/inference_server.h), and every gids_cli flag
#      (tools/gids_cli.cc) must be mentioned in README.md, FAULTS.md,
#      INTEGRITY.md or CACHING.md, so new knobs cannot land undocumented.
#   3. Every cache-policy name in the parse table
#      (src/storage/cache_policy.cc) must appear in the corpus, and the
#      CachePolicyKind enum (src/storage/cache_policy.h) must have
#      exactly as many enumerators as the parse table has names — a new
#      policy cannot land unnamed or undocumented.
#   4. Every <module>/<file>.h or .cc path named in a document that
#      describes the current code (README.md, DESIGN.md, CACHING.md,
#      FAULTS.md, INTEGRITY.md, OBSERVABILITY.md, EXPERIMENTS.md), where
#      <module> is one of src/'s directories, must exist under src/ or
#      tests/, so the docs cannot name a deleted or renamed file. Change
#      records and plans may name old or future files, and perfbench/ is
#      changed only with the benchmark, so neither is checked.
#   5. The "gids_*" string literals under src/ (the metric names the code
#      registers) and the backticked gids_* names in OBSERVABILITY.md must
#      be the same set, so a deleted series cannot keep its doc row and a
#      new one cannot land undocumented.
#
#   tools/docs_lint.sh            # lint everything
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# --- 1. intra-repo markdown links -----------------------------------------
while IFS= read -r md; do
  dir=$(dirname "$md")
  # Markdown inline links: [text](target). One match per line via grep -o.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"                    # strip "#anchor"
    [ -n "$path" ] || continue
    case "$path" in
      /*) resolved=".$path" ;;              # repo-absolute
      *)  resolved="$dir/$path" ;;
    esac
    if [ ! -e "$resolved" ]; then
      echo "docs-lint: dead link in $md -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(git ls-files '*.md')

# --- 2. every knob is documented ------------------------------------------
doc_corpus=$(cat README.md FAULTS.md INTEGRITY.md CACHING.md)

# Option-struct fields: lines like "  <type> name = default;" inside the
# struct (a defaulted operator== is not a field). Take the identifier
# immediately left of '='. The opening line is "struct Name {" or, for a
# struct with bases, "struct Name : Base...".
struct_fields() {  # struct_fields <StructName> <header>
  awk "/^struct $1[ :{]/,/^\\};/" "$2" |
    grep -E '^  [A-Za-z_].*=.*;' | grep -v ' operator' |
    sed -E 's/ *=.*$//; s/.*[ *&]//'
}
fields=""
for spec in "GidsOptions src/core/gids_loader.h" \
            "FaultOptions src/storage/fault_injector.h" \
            "IntegrityOptions src/storage/page_integrity.h" \
            "ReplicaOptions src/storage/replica_set.h" \
            "MutationStreamOptions src/core/mutation_stream.h" \
            "ServingOptions src/serving/inference_server.h"; do
  set -- $spec
  for field in $(struct_fields "$1" "$2"); do
    fields="$fields $field"
    if ! grep -qw -- "$field" <<<"$doc_corpus"; then
      echo "docs-lint: $1::$field not documented in README.md, FAULTS.md, INTEGRITY.md or CACHING.md"
      fail=1
    fi
  done
done

# gids_cli flags: every name passed to the Flags accessors.
flags=$(grep -oE 'flags\.(Get|Has)[A-Za-z]*\("[^"]+"' tools/gids_cli.cc |
  grep -oE '"[^"]+"' | tr -d '"' | sort -u)
for flag in $flags; do
  if ! grep -q -- "--$flag" <<<"$doc_corpus"; then
    echo "docs-lint: gids_cli flag --$flag not documented in README.md, FAULTS.md or INTEGRITY.md"
    fail=1
  fi
done

# --- 3. cache policies are named and documented ---------------------------
# Parse-table names in src/storage/cache_policy.cc: {CachePolicyKind::kX,
# "name"} entries. Every name must appear in the doc corpus (CACHING.md is
# the canonical home), and the CachePolicyKind enum must not have grown an
# enumerator without a parse-table name.
policy_names=$(grep -oE '\{CachePolicyKind::k[A-Za-z]+, "[a-z]+"\}' \
    src/storage/cache_policy.cc | grep -oE '"[a-z]+"' | tr -d '"')
for name in $policy_names; do
  if ! grep -qw -- "$name" <<<"$doc_corpus"; then
    echo "docs-lint: cache policy \"$name\" not documented in README.md or CACHING.md"
    fail=1
  fi
done
enum_count=$(awk '/^enum class CachePolicyKind/,/^\};/' \
    src/storage/cache_policy.h | grep -cE '^  k[A-Za-z]+')
name_count=$(wc -w <<<"$policy_names")
if [ "$enum_count" -ne "$name_count" ]; then
  echo "docs-lint: CachePolicyKind has $enum_count enumerators but the parse table in src/storage/cache_policy.cc names $name_count"
  fail=1
fi

# --- 4. source paths named in the docs exist -------------------------------
modules=$(cd src && ls -d -- */ | tr -d / | paste -sd'|' -)
for md in README.md DESIGN.md CACHING.md FAULTS.md INTEGRITY.md \
          OBSERVABILITY.md EXPERIMENTS.md; do
  while IFS= read -r path; do
    if [ ! -e "src/$path" ] && [ ! -e "tests/$path" ]; then
      echo "docs-lint: $md names $path, which is under neither src/ nor tests/"
      fail=1
    fi
  done < <(grep -oP "(?<![A-Za-z0-9_])($modules)/[A-Za-z0-9_]+\.(h|cc)(?![A-Za-z0-9_])" \
             "$md" | sort -u)
done

# --- 5. the metric catalog matches the code --------------------------------
code_metrics=$(grep -rhoE '"gids_[a-z0-9_]+"' src | tr -d '"' | sort -u)
doc_metrics=$(grep -oE '`gids_[a-z0-9_]+`' OBSERVABILITY.md | tr -d '`' |
  sort -u)
while IFS= read -r name; do
  echo "docs-lint: metric $name is registered in src/ but not documented in OBSERVABILITY.md"
  fail=1
done < <(comm -23 <(echo "$code_metrics") <(echo "$doc_metrics"))
while IFS= read -r name; do
  echo "docs-lint: OBSERVABILITY.md documents $name, which no code under src/ registers"
  fail=1
done < <(comm -13 <(echo "$code_metrics") <(echo "$doc_metrics"))

if [ "$fail" -ne 0 ]; then
  echo "docs-lint: FAILED"
  exit 1
fi
echo "docs-lint: OK ($(git ls-files '*.md' | wc -l) markdown files, $(wc -w <<<"$fields") option fields, $(wc -w <<<"$flags") CLI flags, $(wc -w <<<"$code_metrics") metric names)"
