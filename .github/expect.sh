#!/bin/sh
# Usage: expect.sh WANT ARG...
#
# Run `owp ARG...` through dune and fail unless it exits with status
# WANT.  The command's output goes to the file named by $EXPECT_OUT, or
# is discarded when that is unset, so a caller can grep what it printed.
want=$1
shift
got=0
opam exec -- dune exec bin/owp.exe -- "$@" > "${EXPECT_OUT:-/dev/null}" 2>&1 || got=$?
echo "exit $got (want $want): owp $*"
[ "$got" -eq "$want" ]
