#!/bin/sh
# Doc reference audit, the inverse of unused_exports.sh: every backticked
# reference in README.md, DESIGN.md and EXPERIMENTS.md must name something
# in the tree, and the script fails naming each one that does not.
#
#   - A repo path: a token whose first component is a top-level directory
#     of the repository (lib/obs/critical.ml, perf/run.sh, lib/*/*.mli)
#     must exist; `X.exe` stands for its source `X.ml`, a `:LINE` suffix
#     is dropped, and tokens with placeholders (<...>) or braces are skipped.
#   - A `Module.value` (Obs.Critical.analyze, Sim.Machine.create): some
#     module on the path must be a file in the tree, or be declared as a
#     submodule there, and that file must declare the value (val, let,
#     external, type or record field). A path that starts with a module
#     of the OCaml standard library or a third-party dependency is not
#     checked.
#
# Fenced code blocks are not read. A retired name may still be mentioned
# in prose, but not in backticks, which mark live code.
#
# Usage: sh test/doc_refs.sh STDLIB_DIR, run from the repository root
# (STDLIB_DIR is `ocamlfind ocamlc -where`, or dune's
# %{ocaml-config:standard_library}).
set -e
stdlib=${1:?usage: doc_refs.sh STDLIB_DIR}
docs="README.md DESIGN.md EXPERIMENTS.md"
tmp=${TMPDIR:-/tmp}/doc_refs.$$
trap 'rm -f "$tmp".*' EXIT

find lib bin bench examples perf test -name '*.ml' -o -name '*.mli' > "$tmp.src"
ls -d */ | sed 's:/$::' > "$tmp.tops"

# "FILE:LINE TOKEN" for every whitespace-separated token of every inline
# code span, stripped of surrounding punctuation.
awk '
  /^[ \t]*```/ { fence = !fence; next }
  fence { next }
  {
    n = split($0, f, "`")
    for (i = 2; i < n; i += 2) {
      k = split(f[i], w, /[ \t]+/)
      for (j = 1; j <= k; j++) {
        t = w[j]
        sub(/^[("\[]+/, "", t); sub(/[,;)"\].]+$/, "", t)
        if (t != "") print FILENAME ":" FNR, t
      }
    }
  }' $docs > "$tmp.tokens"

# Files that define module $1: its own source file, or one declaring it as
# a submodule.
module_files() {
  m=$(printf '%s' "$1" | cut -c1 | tr 'A-Z' 'a-z')$(printf '%s' "$1" | cut -c2-)
  files=$(grep -E "/$m\.mli?\$" "$tmp.src" || true)
  if [ -z "$files" ]; then
    files=$(xargs grep -lE "^[ \t]*module( type)? $1( |\$)" < "$tmp.src" || true)
  fi
  printf '%s\n' $files
}

declares() { # file-list value
  printf '%s\n' $1 |
    xargs grep -qE "((^|[^A-Za-z0-9_'.])(val|let|rec|and|external|type|mutable)(\[@[^]]*\])? +$2([^A-Za-z0-9_']|\$))|^[ \t{;]*(mutable +)?$2 *:" 2>/dev/null
}

external_module() {
  m=$(printf '%s' "$1" | cut -c1 | tr 'A-Z' 'a-z')$(printf '%s' "$1" | cut -c2-)
  case "$1" in
    Alcotest | QCheck | QCheck_alcotest | Bechamel | Toolkit | Fmt | Cmdliner | Unix) return 0 ;;
  esac
  [ -f "$stdlib/$m.mli" ] || [ -f "$stdlib/stdlib__$(printf '%s' "$1").cmi" ]
}

bad=0
while read -r where tok; do
  case "$tok" in
    *'<'* | *'{'* | *'$'* | *'|'*) continue ;;
  esac
  case "$tok" in
    */*)
      top=${tok%%/*}
      grep -qxF "$top" "$tmp.tops" || continue
      case "$top" in _*) continue ;; esac
      p=${tok%%:*}
      case "$p" in *.exe) p=${p%.exe}.ml ;; esac
      # Globs expand through the shell; a pattern matching nothing stays
      # literal and fails the test.
      set -- $p
      if [ ! -e "$1" ]; then
        echo "$where: \`$tok\`: no such path"
        bad=$((bad + 1))
      fi
      ;;
    [A-Z]*.[a-z_]*)
      printf '%s\n' "$tok" | grep -qE "^([A-Z][A-Za-z0-9_]*\.)+[a-z_][A-Za-z0-9_']*\$" || continue
      v=${tok##*.}
      case "$v" in md | json | ml | mli | sh | exe | txt | opam | ejrn) continue ;; esac
      mods=${tok%.*}
      first=${mods%%.*}
      found=""
      rest=$mods
      while [ -n "$rest" ]; do
        m=${rest##*.}
        files=$(module_files "$m")
        if [ -n "$files" ]; then found=$files; break; fi
        case "$rest" in *.*) rest=${rest%.*} ;; *) rest="" ;; esac
      done
      if [ -z "$found" ]; then
        if [ ! -d "lib/$(printf '%s' "$first" | tr 'A-Z' 'a-z')" ] && external_module "$first"; then
          continue
        fi
        echo "$where: \`$tok\`: no module on the path is in the tree"
        bad=$((bad + 1))
      elif ! declares "$found" "$v"; then
        echo "$where: \`$tok\`: $v is not declared in $(printf '%s ' $found)"
        bad=$((bad + 1))
      fi
      ;;
    [A-Z]*.[A-Z]*)
      # A module path rooted in the tree (Obs.Critical, Hw.Cycles.Cost):
      # the last module must exist, or be a constructor declared in its
      # parent's file (Obs.Trace.Req_begin).
      printf '%s\n' "$tok" | grep -qE '^[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)+$' || continue
      first=${tok%%.*}
      [ -d "lib/$(printf '%s' "$first" | tr 'A-Z' 'a-z')" ] || [ -n "$(module_files "$first")" ] || continue
      last=${tok##*.}
      [ -n "$(module_files "$last")" ] && continue
      parent=${tok%.*}
      files=$(module_files "${parent##*.}")
      if [ -n "$files" ] && printf '%s\n' $files | xargs grep -qE "(\\||^[ \t]*|[( ])$last( |\$|\))" 2>/dev/null; then
        continue
      fi
      echo "$where: \`$tok\`: no module or constructor $last in the tree"
      bad=$((bad + 1))
      ;;
  esac
done < "$tmp.tokens"

if [ "$bad" -gt 0 ]; then
  echo "$bad stale doc reference(s): fix the path or name, or drop the backticks for a retired name"
  exit 1
fi
