(* The per-layer metrics every traced run reports, with their units.
   A workload that makes no call into a layer from outside reports 0
   for it and lists the name under "not_exercised". *)

let all =
  [
    ("minic.frontend_s", "s");
    ("compile.s", "s");
    ("compile.calls", "count");
    ("engine.unit_hit_rate", "ratio");
    ("engine.image_hit_rate", "ratio");
    ("engine.unit_evictions", "count");
    ("engine.obs_hit_rate", "ratio");
    ("engine.obs_evictions", "count");
    ("engine.key_s", "s");
    ("oracle.check_s", "s");
    ("oracle.checks", "count");
    ("oracle.vm_execs", "count");
    ("oracle.execs_per_check", "execs/check");
    ("oracle.dedup_saved", "count");
    ("oracle.escalation_saved", "count");
    ("oracle.cost_ratio", "x");
    ("fuzzer.self_s", "s");
    ("fuzzer.execs", "count");
    ("fuzzer.edges", "count");
    ("fuzzer.queue_len", "count");
    ("triage.add_s", "s");
    ("triage.signatures", "count");
    ("reduce.s", "s");
    ("reduce.calls", "count");
    ("reduce.checks", "count");
    ("reduce.recompile_s", "s");
    ("reduce.recompiles", "count");
    ("reduce.bytes_ratio", "bytes/check");
    ("static.coverity_s", "s");
    ("static.cppcheck_s", "s");
    ("static.infer_s", "s");
    ("static.unstable_s", "s");
    ("san.build_s", "s");
    ("san.run_s", "s");
    ("serve.hit_p50_ms", "ms");
    ("serve.fresh_p50_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("sched.flights", "count");
    ("sched.checks_per_flight", "checks/flight");
    ("sched.joined", "count");
    ("sched.shed", "count");
    ("sched.warm_oracles", "count");
    ("trace.overhead_s", "s");
  ]

(* Complete a workload's measured per-layer metrics into the full list,
   in canonical order; returns the names that were filled with 0. *)
let complete (measured : Report.metric list) :
    Report.metric list * string list =
  let missing = ref [] in
  let ms =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Report.metric) -> m.name = name) measured with
        | Some m ->
            if m.unit_ <> unit_ then
              invalid_arg (Printf.sprintf "Layers.complete: %s has unit %s, not %s" name m.unit_ unit_);
            m
        | None ->
            missing := name :: !missing;
            Report.metric name unit_ 0.)
      all
  in
  List.iter
    (fun (m : Report.metric) ->
      if not (List.mem_assoc m.name all) then
        invalid_arg ("Layers.complete: unknown per-layer metric " ^ m.name))
    measured;
  (ms, List.rev !missing)
