#!/bin/sh
# Render the top-level help page and every subcommand's page as plain
# text; fail if cmdliner rejected any doc string (it reports malformed
# markup as "cmdliner error: ..." inside the rendered page) or if no
# subcommand was found to check.
#
#   sh bin/help_check.sh _build/default/bin/ndnsim.exe
exe=$1
case $exe in */*) ;; *) exe=./$exe ;; esac
subs=$("$exe" --help=plain |
  awk '/^COMMANDS/ { f = 1; next } /^[A-Z]/ { f = 0 } f && /^       [a-z]/ { print $1 }')
if [ -z "$subs" ]; then
  echo "help_check: no subcommands listed by $exe --help=plain" >&2
  exit 1
fi
status=0
for sub in "" $subs; do
  if ! out=$("$exe" $sub --help=plain 2>&1); then
    echo "help_check: ndnsim $sub --help=plain exited non-zero" >&2
    status=1
  fi
  if printf '%s\n' "$out" | grep -q 'cmdliner error'; then
    echo "help_check: ndnsim $sub --help=plain:" >&2
    printf '%s\n' "$out" | grep 'cmdliner error' >&2
    status=1
  fi
done
exit $status
