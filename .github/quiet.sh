# Sourced by the workflow steps that run the command line. quiet runs a
# command and fails unless it exits 0 and leaves stderr empty: the
# suite's filterwarnings = error does not reach a numpy warning there.
quiet() {
  status=0
  "$@" 2> "$RUNNER_TEMP/stderr" || status=$?
  cat "$RUNNER_TEMP/stderr" >&2
  [ "$status" -eq 0 ] && [ ! -s "$RUNNER_TEMP/stderr" ]
}
