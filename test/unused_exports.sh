#!/bin/sh
# Export audit: list every `val` in lib/*/*.mli whose name occurs in no
# .ml/.mli outside its own module (lib/D/m.ml and lib/D/m.mli), across
# lib, bin, bench, examples, perf and test, and fail if there is any.
# Names are matched as whole words in one grep pass, so a name shared with
# some other identifier counts as used: the audit finds values nothing
# names, not every value nothing calls. Run from the repository root.
set -e
tmp=${TMPDIR:-/tmp}/unused_exports.$$
trap 'rm -f "$tmp".*' EXIT
# "lib/D/m name" per declared value.
awk '/^[ \t]*val [a-z_][A-Za-z0-9_]*/ {
       n = $0; sub(/^[ \t]*val /, "", n); sub(/[^A-Za-z0-9_].*/, "", n)
       m = FILENAME; sub(/\.mli$/, "", m); print m, n }' lib/*/*.mli > "$tmp.decl"
awk '{ print $2 }' "$tmp.decl" | sort -u > "$tmp.names"
# "path:name" per occurrence of a declared name anywhere in the tree.
find lib bin bench examples perf test -name '*.ml' -o -name '*.mli' |
  xargs grep -owF -f "$tmp.names" > "$tmp.uses" || true
awk 'FNR == NR {
       k = $0; sub(/:.*/, "", k); sub(/\.mli?$/, "", k)
       n = $0; sub(/^[^:]*:/, "", n)
       if (!((n, k) in seen)) { seen[n, k] = 1; mods[n]++; some[n] = k }
       next
     }
     # Used outside its own module: named in two modules, or in one other.
     mods[$2] > 1 || (mods[$2] == 1 && some[$2] != $1) { next }
     { print $1 ".mli: val " $2 " is named nowhere outside its module"; bad++ }
     END {
       if (bad) {
         print bad " unused export(s): delete the value, or drop it from the .mli"
         exit 1
       }
     }' "$tmp.uses" "$tmp.decl"
