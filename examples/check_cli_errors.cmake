# Asserts the CLI's argument-validation and batch-mode contract.
#
#   cmake -DCLI=<path to example_polyroots_cli> -P check_cli_errors.cmake
#
# ctest's PASS_REGULAR_EXPRESSION overrides exit-code checking, so the
# "exit code 2 AND diagnostic on stderr" contract is asserted here with
# execute_process instead of test properties.

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to example_polyroots_cli>")
endif()

function(expect_cli expected_rc stream expected_pattern)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR "[${ARGN}] exited ${rc}, expected ${expected_rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(stream STREQUAL "stderr")
    set(text "${err}")
  else()
    set(text "${out}")
  endif()
  if(NOT text MATCHES "${expected_pattern}")
    message(FATAL_ERROR "[${ARGN}] ${stream} does not match "
                        "\"${expected_pattern}\"\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# Malformed numeric values: exit 2 plus a diagnostic naming the flag.
expect_cli(2 stderr "invalid value for --threads" "x^2 - 2" --threads x)
expect_cli(2 stderr "invalid value for --parallel" "x^2 - 2" --parallel x)
expect_cli(2 stderr "invalid value for --digits" "x^2 - 2" --digits 12abc)
# Out-of-range values are rejected the same way (never clamped).
expect_cli(2 stderr "invalid value for --threads" "x^2 - 2" --threads 0)
expect_cli(2 stderr "invalid value for --digits" "x^2 - 2" --digits 0)
# Strategy names are parsed strictly: only "paper" and "radii" exist.
expect_cli(2 stderr "invalid value for --finder" "x^2 - 2" --finder fast)
expect_cli(2 stderr "invalid value for --finder" "x^2 - 2" --finder PAPER)
# A value flag ending argv is "missing value", not "unknown option".
expect_cli(2 stderr "missing value for --digits" "x^2 - 2" --digits)
expect_cli(2 stderr "missing value for --batch" --batch)
expect_cli(2 stderr "missing value for --finder" "x^2 - 2" --finder)
# Unknown options and mixed modes still diagnose cleanly.
expect_cli(2 stderr "unknown option: --bogus" "x^2 - 2" --bogus)
# A removed option is diagnosed like any unknown one.
expect_cli(2 stderr "unknown option: --pieces" "x^2 - 2" --pieces 4)
expect_cli(2 stderr "batch/serve mode" --serve "x^2 - 2")
# Sanity: a well-formed invocation still succeeds.
expect_cli(0 stdout "x_0 = " "x^2 - 2" --digits 12 --threads 2)
# Both finder strategies answer; radii also takes complex-rooted inputs
# the paper path would push onto the Sturm fallback.
expect_cli(0 stdout "x_0 = " "x^2 - 2" --finder radii)
expect_cli(0 stdout "x_0 = " "x^3 - 2" --finder radii --threads 2)

# Batch-mode smoke: duplicates dedup, repeats hit, bad lines diagnose
# with their line number, and the service summary prints.
set(batch_file "${CMAKE_CURRENT_BINARY_DIR}/cli_batch_requests.txt")
file(WRITE "${batch_file}"
     "x^2 - 2\nx^2 - 2\nx^3 - 6x^2 + 11x - 6\n3*\n2x^2 - 4\n")
expect_cli(0 stdout "line 1 \\[miss\\]" --batch "${batch_file}"
           --threads 2 --stats)
expect_cli(0 stdout "line 2 \\[dedup\\]" --batch "${batch_file}"
           --threads 2)
expect_cli(0 stdout "line 4: error: " --batch "${batch_file}")
# "2x^2 - 4" canonicalizes to "x^2 - 2": batch dedup collapses it too.
expect_cli(0 stdout "line 5 \\[dedup\\]" --batch "${batch_file}")
expect_cli(0 stdout "service: requests 5" --batch "${batch_file}" --stats)
# --finder threads through batch and serve modes (strategy-tagged
# requests; the radii path bypasses the shared tree staging).
expect_cli(0 stdout "line 1 \\[miss\\]" --batch "${batch_file}"
           --finder radii --threads 2)
file(REMOVE "${batch_file}")
