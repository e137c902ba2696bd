(* juliet: the Table 3 pass, [Juliet.Eval.evaluate_suite] over
   [Juliet.Suite.full ()], one test at a time in a seeded order.  Tests
   run in chunks that each get a fresh engine session, as one [compdiff
   juliet] process over that slice would, so memory does not grow with
   the number of tests a fast run gets through. *)

open Perfbench
module Eval = Juliet.Eval

let chunk = 126
let recheck_tests = 24

type state = { tests : Juliet.Testcase.t array }

let setup (c : Common.ctx) : state =
  let suite = Array.of_list (Juliet.Suite.full ()) in
  { tests = Array.map (fun i -> suite.(i)) (Common.permutation ~seed:c.seed (Array.length suite)) }

(* Evaluate tests [0, n) of the seeded order — or until [deadline]
   seconds of evaluation have passed — with [eval], a fresh session per
   chunk.  Returns the evaluations and their latencies in ms. *)
let sweep ?(deadline = infinity) (st : state) n eval =
  let evals = ref [] and lat = ref [] and busy = ref 0. in
  let session = ref (Engine.Session.create ()) and sessions = ref [] in
  let i = ref 0 in
  while !i < n && !busy < deadline do
    if !i mod chunk = 0 && !i > 0 then begin
      (* a new slice starts as a new process would: fresh session, and
         (outside the clock) a compacted heap *)
      sessions := Engine.Session.stats !session :: !sessions;
      session := Engine.Session.create ();
      Gc.compact ()
    end;
    let t = st.tests.(!i mod Array.length st.tests) in
    let t0 = Common.now () in
    let e = eval !session t in
    let dt = Common.now () -. t0 in
    busy := !busy +. dt;
    lat := (dt *. 1000.) :: !lat;
    evals := e :: !evals;
    incr i
  done;
  ( List.rev !evals,
    Array.of_list (List.rev !lat),
    !busy,
    Engine.Session.stats !session :: !sessions )

let product session t =
  match Eval.evaluate_suite ~session [ t ] with [ e ] -> e | _ -> assert false

let false_positives evals = List.length (List.filter (fun (e : Eval.test_eval) -> snd e.Eval.compdiff) evals)
let detections evals = List.length (List.filter (fun (e : Eval.test_eval) -> fst e.Eval.compdiff) evals)

(* Re-evaluate the first tests on a fresh session: per-test results and
   their Table 3 rows must be identical.  Returns the mismatches. *)
let recheck st evals =
  let again, _, _, _ = sweep st recheck_tests product in
  let first = List.filteri (fun i _ -> i < recheck_tests) evals in
  let differing = List.length (List.filter Fun.id (List.map2 ( <> ) first again)) in
  differing + if Eval.aggregate first = Eval.aggregate again then 0 else 1

let measure (c : Common.ctx) (st : state) : Report.outcome =
  let evals, lat, busy, _ = sweep ~deadline:c.seconds st max_int product in
  let n = List.length evals in
  let fps = false_positives evals in
  let failed = fps + recheck st evals in
  {
    Report.correct = failed = 0;
    attempted = n;
    failed;
    metrics = [ Report.metric "throughput_per_s" "1/s" (float_of_int n /. busy) ];
    detail =
      [
        ("op", Report.Str "Juliet test evaluated (bad+good, every tool)");
        ("window_s", Report.Num busy);
        ("tests", Report.Int n);
        ( "findings_per_s",
          Report.figure ~unit_:"1/s" ~n:(detections evals) (float_of_int (detections evals) /. busy) );
        ("compdiff_false_positives", Report.Int fps);
        ("latency_ms", Report.latency_json lat);
      ];
  }

(* [Eval.evaluate] rebuilt from its public steps, a span around each. *)
let traced_eval (sp : Span.t) session (t : Juliet.Testcase.t) : Eval.test_eval =
  let r name f = Span.record sp name f in
  let fuel = 100_000 in
  let category = (Juliet.Cwe.info t.Juliet.Testcase.cwe).Juliet.Cwe.category in
  let bad = r "frontend" (fun () -> Juliet.Testcase.frontend_bad t) in
  let good = r "frontend" (fun () -> Juliet.Testcase.frontend_good t) in
  let inputs = t.Juliet.Testcase.inputs in
  let oracle_bad = r "compile" (fun () -> Compdiff.Oracle.create ~session ~fuel bad) in
  let detected, partition, reduction =
    match r "oracle" (fun () -> Compdiff.Oracle.find_bug oracle_bad ~inputs) with
    | Some (input, obs) ->
        let red =
          r "reduce" (fun () -> Compdiff.Reduce.reduce ~max_checks:200 oracle_bad ~input obs)
        in
        ( true,
          Compdiff.Oracle.partition oracle_bad obs,
          Option.map (fun (x : Compdiff.Reduce.result) -> x.Compdiff.Reduce.red_stats) red )
    | None -> (false, Array.make Eval.nimpls 0, None)
  in
  let oracle_good = r "compile" (fun () -> Compdiff.Oracle.create ~session ~fuel good) in
  let fp = r "oracle" (fun () -> Compdiff.Oracle.detects oracle_good ~inputs) in
  let oracle_stats =
    Eval.add_oracle_stats (Compdiff.Oracle.stats oracle_bad) (Compdiff.Oracle.stats oracle_good)
  in
  let bad_build = r "san.build" (fun () -> Sanitizers.San.build ~session bad) in
  let good_build = r "san.build" (fun () -> Sanitizers.San.build ~session good) in
  let static name tool = r name (fun () -> Eval.eval_static tool t category) in
  let san kind = r "san.run" (fun () -> Eval.eval_sanitizer ~fuel kind ~bad_build ~good_build ~inputs) in
  let coverity = static "static.coverity" Staticcheck.Static_tools.Coverity in
  let cppcheck = static "static.cppcheck" Staticcheck.Static_tools.Cppcheck in
  let infer = static "static.infer" Staticcheck.Static_tools.Infer in
  let unstable = static "static.unstable" Staticcheck.Static_tools.Unstable in
  let asan = san Sanitizers.San.Asan in
  let ubsan = san Sanitizers.San.Ubsan in
  let msan = san Sanitizers.San.Msan in
  {
    Eval.test = t;
    category;
    coverity;
    cppcheck;
    infer;
    unstable;
    asan;
    ubsan;
    msan;
    compdiff = (detected, fp);
    partition;
    reduction;
    oracle_stats;
  }

let traced_tests = 252

(* The first tests untraced, traced, and untraced again: all three
   sweeps must give the same per-test results and Table 3 rows. *)
let traced (_ : Common.ctx) (st : state) : Report.outcome =
  let plain, _, p1, _ = sweep st traced_tests product in
  let sp = Span.create () in
  let traced, _, traced_s, sessions = sweep st traced_tests (traced_eval sp) in
  let plain2, _, p2, _ = sweep st traced_tests product in
  let differing =
    List.length (List.filter Fun.id (List.map2 ( <> ) plain traced))
    + List.length (List.filter Fun.id (List.map2 ( <> ) plain plain2))
  in
  let rows_same = Eval.aggregate plain = Eval.aggregate traced in
  let failed = differing + (if rows_same then 0 else 1) + false_positives traced in
  let tot = Span.totals sp in
  let total name = (Span.find tot name).Span.total_s in
  let count name = (Span.find tot name).Span.count in
  let reds = List.filter_map (fun (e : Eval.test_eval) -> e.Eval.reduction) traced in
  let metrics =
    [
      Report.metric "minic.frontend_s" "s" (total "frontend");
      Report.metric "compile.s" "s" (total "compile");
      Report.metric "compile.calls" "count" (float_of_int (count "compile"));
      Report.metric "static.coverity_s" "s" (total "static.coverity");
      Report.metric "static.cppcheck_s" "s" (total "static.cppcheck");
      Report.metric "static.infer_s" "s" (total "static.infer");
      Report.metric "static.unstable_s" "s" (total "static.unstable");
      Report.metric "san.build_s" "s" (total "san.build");
      Report.metric "san.run_s" "s" (total "san.run");
      Report.metric "trace.overhead_s" "s" (traced_s -. ((p1 +. p2) /. 2.));
    ]
    @ Common.engine_metrics (List.fold_left Common.engine_add Common.engine_zero sessions)
    @ Common.oracle_metrics ~check_s:(total "oracle") (Eval.sum_oracle_stats traced)
    @ Common.reduce_metrics ~s:(total "reduce") ~calls:(count "reduce") ~recompile_s:0.
        ~recompiles:0 reds
  in
  {
    Report.correct = failed = 0;
    attempted = traced_tests;
    failed;
    metrics;
    detail =
      [
        ("traced_tests", Report.Int traced_tests);
        ("untraced_s", Report.Arr [ Report.Num p1; Report.Num p2 ]);
        ("traced_s", Report.Num traced_s);
        ("results_identical", Report.Bool (differing = 0 && rows_same));
        ( "layer_share",
          Report.Obj
            (List.map
               (fun (n, (x : Span.totals)) -> (n, Report.Num (x.Span.total_s /. traced_s)))
               tot) );
      ];
  }
