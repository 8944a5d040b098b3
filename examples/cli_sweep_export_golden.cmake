# Byte-identity check of `fcdpm_cli sweep`'s exports: runs two small
# grids with --out and compares the stdout table and the JSON report
# with the files in GOLDEN_DIR. Timing is masked first: the JSON's
# wall_s and points_per_s, and the stdout summary line. On a mismatch
# the masked output is left in WORK_DIR as <case>.actual.txt and
# <case>.actual.json; after a deliberate format change, review them and
# copy them over the golden files.
#
#   cmake -DCLI=<fcdpm_cli> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P <file>

function(check_case name)
  set(json ${WORK_DIR}/cli_golden_${name}.json)
  file(REMOVE ${json})
  execute_process(COMMAND ${CLI} sweep ${ARGN} --out ${json}
                  OUTPUT_VARIABLE stdout RESULT_VARIABLE code)
  if(NOT code EQUAL 0 OR NOT EXISTS ${json})
    message(FATAL_ERROR "${name}: fcdpm_cli sweep exited ${code}")
  endif()
  string(REGEX REPLACE "\n[0-9]+ points at [0-9]+ jobs: [^\n]*"
         "\n<summary>" stdout "${stdout}")
  string(REGEX REPLACE "\nwrote sweep bench to [^\n]*"
         "\nwrote sweep bench" stdout "${stdout}")
  file(READ ${json} report)
  string(REGEX REPLACE "\"(wall_s|points_per_s)\":[^,]*" "\"\\1\":0"
         report "${report}")

  file(READ ${GOLDEN_DIR}/${name}.txt expected_stdout)
  if(NOT stdout STREQUAL expected_stdout)
    file(WRITE ${WORK_DIR}/${name}.actual.txt "${stdout}")
    message(SEND_ERROR "${name}: stdout differs from ${GOLDEN_DIR}/${name}.txt"
            "; masked output in ${WORK_DIR}/${name}.actual.txt")
  endif()
  file(READ ${GOLDEN_DIR}/${name}.json expected_report)
  if(NOT report STREQUAL expected_report)
    file(WRITE ${WORK_DIR}/${name}.actual.json "${report}")
    message(SEND_ERROR "${name}: --out differs from ${GOLDEN_DIR}/${name}.json"
            "; masked report in ${WORK_DIR}/${name}.actual.json")
  endif()
endfunction()

# Fault storms on the reference engine (the default flags).
check_case(sweep_storm --policies conv,asap,fcdpm,oracle --rhos 0.3,0.7
           --capacities 3,24 --storm-seeds 1,2)
# A capacity axis on the batched engine: merge sets and splits.
check_case(sweep_batched --engine batched --policies conv,asap,fcdpm,oracle
           --rhos 0.5 --capacities 1.5,3,6,12,24)
