#!/usr/bin/env bash
# Unlinked code: functions of the root module's non-main packages that no
# program links. Every main package of the root module and of the
# benchmarks/ module (found with go list, so a new command is scanned
# without editing this file) is built with inlining off, and the text
# symbols of the binaries are compared with the functions declared in
# the non-test files of the root module's other packages. A declared
# function that no binary carries is unlinked.
#
# scripts/unlinked.allow names the unlinked functions that are kept on
# purpose, one per line: "<symbol> <category> <reason>". A symbol of the
# form "<package>.*" covers a whole package (test-support only).
#
# The script prints every unlinked function the allowlist does not name,
# and every allowlist entry that is stale (now linked, or no longer
# declared), and exits 1 if it printed anything. It builds into a
# temporary directory and writes nothing into the checkout.
#
#	bash scripts/unlinked.sh
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Link every program. -l keeps each called function a symbol of its own.
mains() { go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep .; }
mkdir "$tmp/root" "$tmp/bench"
go build -gcflags=all=-l -o "$tmp/root/" $(mains)
(cd benchmarks && go build -gcflags=all=-l -o "$tmp/bench/" $(mains))

# Linked: every text symbol, as package.Func or package.Type.Method
# (pointer receivers and type arguments dropped).
for bin in "$tmp"/root/* "$tmp"/bench/*; do
	go tool nm "$bin" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p'
done | sed -E 's/\[.*\]//; s/\(\*([^)]*)\)/\1/' | sort -u >"$tmp/linked"

# Declared: every func in the non-test files of a non-main package, in
# the same form, with the source spelling of the symbol beside it.
go list -f '{{if ne .Name "main"}}{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}
{{end}}{{end}}' ./... | while read -r pkg file; do
	[ -n "$pkg" ] || continue
	awk -v pkg="$pkg" '
		/^func / {
			line = $0
			sub(/^func /, "", line)
			recv = ""
			if (line ~ /^\(/) {
				recv = substr(line, 2, index(line, ")") - 2)
				line = substr(line, index(line, ")") + 2)
				gsub(/\[[^]]*\]/, "", recv)
				n = split(recv, f, " ")
				recv = f[n]
			}
			match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
			name = substr(line, 1, RLENGTH)
			if (name == "init" || name == "_") next
			if (recv == "") { key = pkg "." name; shown = key }
			else {
				t = recv; sub(/^\*/, "", t)
				key = pkg "." t "." name
				shown = recv ~ /^\*/ ? pkg ".(" recv ")." name : key
			}
			print key, shown
		}' "$file"
done | sort -u >"$tmp/declared"

awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print $2 }' \
	"$tmp/linked" "$tmp/declared" | sort >"$tmp/unlinked"

# Match the allowlist against the unlinked set; report both directions.
awk '
	FILENAME == ARGV[1] {
		if ($0 ~ /^[[:space:]]*(#|$)/) next
		if ($2 !~ /^(test-support|library-api|interface-only|oracle|seam-pinned|contract)$/ || NF < 3) {
			print "allowlist line " FNR " needs <symbol> <category> <reason>: " $0
			bad = 1
			next
		}
		if ($1 ~ /\.\*$/ && $2 != "test-support") {
			print "allowlist line " FNR ": only test-support may name a whole package: " $1
			bad = 1
			next
		}
		allow[$1] = FNR
		next
	}
	{
		pkg = $0
		sub(/\.[^\/]*$/, "", pkg)
		if ($0 in allow) used[$0] = 1
		else if ((pkg ".*") in allow) used[pkg ".*"] = 1
		else { print "unlinked: " $0; bad = 1 }
	}
	END {
		for (s in allow) if (!(s in used)) {
			print "stale allowlist entry (linked, or not declared): " s
			bad = 1
		}
		exit bad
	}' scripts/unlinked.allow "$tmp/unlinked"
