# Smoke pipeline: generate -> inspect -> convert both ways -> purgelist ->
# analyze_series over the generated directory. Any nonzero exit fails the
# test.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
  endif()
endfunction()

run(${TOOL} generate --dir=${WORKDIR}/series --scale=1e-5 --weeks=6)
file(GLOB snaps ${WORKDIR}/series/snap_*.scol)
list(LENGTH snaps count)
if(count EQUAL 0)
  message(FATAL_ERROR "no snapshots generated")
endif()
list(GET snaps 0 first)

run(${TOOL} inspect --in=${first})
run(${TOOL} stat --in=${first})
run(${TOOL} convert --in=${first} --out=${WORKDIR}/snap.psv)
run(${TOOL} convert --in=${WORKDIR}/snap.psv --out=${WORKDIR}/snap.scol)
run(${TOOL} purgelist --in=${first} --age=60 --out=${WORKDIR}/purge.list)
list(LENGTH snaps count)
if(count GREATER 1)
  list(GET snaps 1 second)
  run(${TOOL} diff ${first} ${second})
endif()
run(${ANALYZE} --dir=${WORKDIR}/series --report=census)

# Checkpointed run, then offline checkpoint inspection (OK sections,
# exit 0). FullStudy never resumes (scan-only analyzers record
# re-baseline markers) but the .sckpt must still verify clean.
run(${ANALYZE} --dir=${WORKDIR}/series --report=census
    --checkpoint=${WORKDIR}/study.sckpt)
run(${TOOL} checkpoint --in=${WORKDIR}/study.sckpt)

file(REMOVE_RECURSE ${WORKDIR})
