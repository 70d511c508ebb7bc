#!/usr/bin/env bash
# runlists.sh fails when a `go test -run` filter in the Makefile or the CI
# workflow names a test that does not exist. For every such filter it
# lists the tests of the packages the same command names (go test -list)
# and requires each |-alternative of the pattern to match at least one of
# them; without this a renamed or deleted test silently turns a stress
# leg into a no-op. Run from anywhere: bash scripts/runlists.sh
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}

fail=0
checked=0
while IFS= read -r hit; do
	where=${hit%%:*}:$(cut -d: -f2 <<<"$hit")
	line=${hit#*:*:}
	pat=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	pat=${pat//\$\$/\$} # the Makefile's escaped dollar
	[[ $pat == '^$' ]] && continue # runs no test on purpose (fuzzing)
	pkgs=()
	for w in $(sed -E "s/.*-run '[^']*'//" <<<"$line"); do
		[[ $w == .* ]] && pkgs+=("$w")
	done
	names=$("$GO" test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$where: -run alternative '$alt' matches no test in ${pkgs[*]}"
			fail=1
		fi
	done
done < <(grep -nHE "(go|\\\$\(GO\)) test .*-run '" Makefile .github/workflows/ci.yml)

if [[ $fail != 0 ]]; then
	exit 1
fi
echo "runlists: $checked -run alternatives each match a test"
