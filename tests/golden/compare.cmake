# Regenerate every frozen artifact in this directory with the current
# bench binaries and compare each one with its golden (ctest:
# test_golden): the crash artifacts byte for byte, the BENCH artifacts
# cell by cell.
#
#   cmake -DFAULT_CAMPAIGN=<fault_campaign> -DMODEL_CHECK=<model_check>
#         -DFIG9=<fig9_exec_time> -DFIG_SCALING=<fig_scaling>
#         -DPYTHON=<python3> -DSAME_CELLS=<.github/scripts/same_cells.py>
#         -DGOLDEN_DIR=<this directory> -DOUT_DIR=<scratch directory>
#         -P compare.cmake
#
# The commands must stay in step with README.md.

foreach(var FAULT_CAMPAIGN MODEL_CHECK FIG9 FIG_SCALING PYTHON SAME_CELLS
            GOLDEN_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake needs -D${var}=...")
    endif()
endforeach()
file(MAKE_DIRECTORY ${OUT_DIR})

# check_golden(<artifact> <command>...): run <command> --json into
# OUT_DIR, then compare the artifact with the golden of the same name
# byte for byte.
function(check_golden name)
    if(NOT DEFINED compare)
        set(compare ${CMAKE_COMMAND} -E compare_files)
    endif()
    set(out ${OUT_DIR}/${name})
    file(REMOVE ${out})
    execute_process(COMMAND ${ARGN} --json ${out}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${name}: '${ARGN}' exited with ${rc}")
        return()
    endif()
    execute_process(COMMAND ${compare} ${GOLDEN_DIR}/${name} ${out}
                    OUTPUT_QUIET ERROR_VARIABLE why
                    ERROR_STRIP_TRAILING_WHITESPACE
                    RESULT_VARIABLE differs)
    if(differs)
        message(SEND_ERROR "${name}: ${out} differs from the golden\n"
                           "${why}")
    else()
        message(STATUS "${name}: identical")
    endif()
endfunction()

# check_golden_cells(<artifact> <command>...): the same for a BENCH
# artifact, compared cell by cell in every key but host_perf, which
# differs from run to run (same_cells.py).  The command must pass
# --no-cache: the cache fingerprint carries no code version, so cached
# cells would hide a change in the simulator.
function(check_golden_cells name)
    set(compare ${PYTHON} ${SAME_CELLS})
    check_golden(${name} ${ARGN})
endfunction()

check_golden(campaign.json ${FAULT_CAMPAIGN}
    --app update --seed 1 --points 60 --txns 40 --ops 8)
check_golden(model_check.json ${MODEL_CHECK}
    --app update --txns 2 --ops 2 --array-len 64 --max-states 20000)
check_golden(model_check_seed_bug.json ${MODEL_CHECK}
    --app update --txns 2 --ops 2 --array-len 64 --max-states 20000
    --seed-bug)
check_golden(conc_check_seed_bug.json ${MODEL_CHECK}
    --conc rwlock --cores 2 --ops-per-core 4 --workload-seed 57
    --seed-bug)
check_golden(conc_campaign.json ${FAULT_CAMPAIGN}
    --conc msqueue --cores 4 --points 200)
check_golden_cells(fig9.json ${FIG9} --txns 6 --ops 6 --no-cache)
check_golden_cells(scaling.json ${FIG_SCALING} --ops 64 --no-cache)
