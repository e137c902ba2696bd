(* fuzz: CompDiff-AFL++ with its default configuration, as [compdiff
   fuzz] runs it (one engine session per target, reduce-on-save on),
   over every registry target with a fixed exec budget each.  Targets
   take their seeds, profile set, normalizer and fuel as
   [Projects.Campaign.run_project] gives them. *)

open Perfbench
module Afl = Fuzz.Compdiff_afl

let execs_per_target = 2_000

type target = { p : Projects.Project.t; tp : Minic.Tast.tprogram }
type state = { targets : target array; order : int array }

let setup (c : Common.ctx) : state =
  let targets =
    Array.of_list
      (List.map (fun p -> { p; tp = Projects.Project.frontend p }) Projects.Registry.all)
  in
  { targets; order = Common.permutation ~seed:c.seed (Array.length targets) }

(* The k-th campaign of the run: targets in seeded order, a fresh
   fuzzing seed per campaign. *)
let config_of (st : state) (c : Common.ctx) k ~session =
  let t = st.targets.(st.order.(k mod Array.length st.order)) in
  ( t,
    {
      Afl.default_config with
      Afl.seeds = t.p.Projects.Project.seeds;
      max_execs = execs_per_target;
      rng_seed = (c.seed * 7919) + k;
      fuel = 60_000;
      profiles = Projects.Project.profiles_for t.p;
      normalize = t.p.Projects.Project.normalize;
      session = Some session;
    } )

let run_campaign st c k =
  let t, config = config_of st c k ~session:(Engine.Session.create ()) in
  Afl.run ~config t.tp

(* Algorithm 1 rebuilt from the public calls [Afl.run] makes, in the
   same order, with a span around each. *)
let traced_campaign (sp : Span.t) reds st c k =
  let session = Engine.Session.create () in
  let t, config = config_of st c k ~session in
  let fuzz_unit =
    Span.record sp "compile" (fun () ->
        Engine.Session.compile session Cdcompiler.Profiles.fuzz_profile t.tp)
  in
  let jobs = if config.Afl.jobs > 0 then config.Afl.jobs else Cdutil.Pool.default_jobs () in
  let oracle =
    Span.record sp "compile" (fun () ->
        Compdiff.Oracle.create ~session ~profiles:config.Afl.profiles
          ~normalize:config.Afl.normalize ~fuel:config.Afl.fuel ~jobs t.tp)
  in
  let triage = Compdiff.Triage.create () in
  let counter = ref 0 and checks = ref 0 in
  let on_input input =
    incr counter;
    if !counter mod config.Afl.diff_every = 0 then begin
      incr checks;
      match Span.record sp "oracle.check" (fun () -> Compdiff.Oracle.check oracle ~input) with
      | Compdiff.Oracle.Diverge obs ->
          let freshness =
            Span.record sp "triage.add" (fun () -> Compdiff.Triage.add triage oracle ~input obs)
          in
          if freshness = `New && config.Afl.reduce_on_save then begin
            match
              Span.record sp "reduce" (fun () ->
                  Compdiff.Reduce.reduce ~max_checks:config.Afl.reduce_checks oracle ~input obs)
            with
            | Some r ->
                reds := r.Compdiff.Reduce.red_stats :: !reds;
                Compdiff.Triage.attach_reduced triage ~input
                  {
                    Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
                    red_observations = r.Compdiff.Reduce.red_observations;
                    red_checks = r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
                  }
            | None -> ()
          end;
          if config.Afl.divergence_feedback && freshness = `New then Fuzz.Fuzzer.Interesting
          else Fuzz.Fuzzer.Boring
      | Compdiff.Oracle.Agree _ -> Fuzz.Fuzzer.Boring
    end
    else Fuzz.Fuzzer.Boring
  in
  let fuzz =
    Span.record sp "fuzzer" (fun () ->
        Fuzz.Fuzzer.run
          ~config:
            {
              Fuzz.Fuzzer.seeds = config.Afl.seeds;
              max_execs = config.Afl.max_execs;
              fuel = config.Afl.fuel;
              rng_seed = config.Afl.rng_seed;
              det_bytes = Fuzz.Fuzzer.default_config.Fuzz.Fuzzer.det_bytes;
              hooks = Cdvm.Hooks.none;
              on_input = Some on_input;
            }
          fuzz_unit)
  in
  { Afl.fuzz; diffs = triage; oracle; diff_checks = !checks }

(* Everything a campaign reports; traced and untraced runs must agree
   on all of it. *)
let summary (r : Afl.campaign) =
  let f = r.Afl.fuzz in
  ( ( f.Fuzz.Fuzzer.execs,
      List.length f.Fuzz.Fuzzer.queue,
      f.Fuzz.Fuzzer.edges_covered,
      List.length f.Fuzz.Fuzzer.crashes ),
    ( Compdiff.Triage.total_count r.Afl.diffs,
      Compdiff.Triage.unique_count r.Afl.diffs,
      Compdiff.Triage.reduced_count r.Afl.diffs,
      Compdiff.Triage.reduction_bytes r.Afl.diffs ),
    List.map
      (fun (e : Compdiff.Triage.diff_entry) ->
        ( e.Compdiff.Triage.input,
          e.Compdiff.Triage.signature,
          Option.map
            (fun (x : Compdiff.Triage.reduced) -> (x.Compdiff.Triage.red_input, x.red_checks))
            e.Compdiff.Triage.reduced ))
      (Compdiff.Triage.representatives r.Afl.diffs),
    r.Afl.diff_checks,
    Compdiff.Oracle.stats r.Afl.oracle )

(* Correctness: every representative diverges again under the naive
   sequential oracle.  Returns the number that do not. *)
let recheck (r : Afl.campaign) =
  List.length
    (List.filter
       (fun (e : Compdiff.Triage.diff_entry) ->
         not
           (Compdiff.Oracle.is_divergence
              (Compdiff.Oracle.check_naive r.Afl.oracle ~input:e.Compdiff.Triage.input)))
       (Compdiff.Triage.representatives r.Afl.diffs))

let execs (r : Afl.campaign) = r.Afl.fuzz.Fuzz.Fuzzer.execs
let signatures (r : Afl.campaign) = Compdiff.Triage.unique_count r.Afl.diffs

(* Campaigns run back to back until their summed wall time reaches the
   window.  Each is re-checked and dropped between campaigns, outside
   the clock, so memory does not grow with the number of campaigns. *)
let measure (c : Common.ctx) (st : state) : Report.outcome =
  let busy = ref 0. and k = ref 0 in
  let n_execs = ref 0 and sigs = ref 0 and divergent = ref 0 and reps = ref 0 and failed = ref 0 in
  while !busy < c.seconds do
    let t0 = Common.now () in
    let r = run_campaign st c !k in
    busy := !busy +. (Common.now () -. t0);
    incr k;
    n_execs := !n_execs + execs r;
    sigs := !sigs + signatures r;
    divergent := !divergent + Compdiff.Triage.total_count r.Afl.diffs;
    reps := !reps + List.length (Compdiff.Triage.representatives r.Afl.diffs);
    failed := !failed + recheck r
  done;
  {
    Report.correct = !failed = 0;
    attempted = !n_execs;
    failed = !failed;
    metrics = [ Report.metric "throughput_per_s" "1/s" (float_of_int !n_execs /. !busy) ];
    detail =
      [
        ("op", Report.Str "fuzz exec (B_fuzz run + 10-way oracle check)");
        ("window_s", Report.Num !busy);
        ("campaigns", Report.Int !k);
        ("execs_per_target", Report.Int execs_per_target);
        ("findings_per_s", Report.figure ~unit_:"1/s" ~n:!sigs (float_of_int !sigs /. !busy));
        ("divergent_inputs", Report.Int !divergent);
        ("representatives_rechecked", Report.Int !reps);
      ];
  }

(* One pass over every target untraced, one traced, one untraced
   again, each campaign on a fresh session: all three must report the
   same results. *)
let traced (c : Common.ctx) (st : state) : Report.outcome =
  let n = Array.length st.targets in
  let plain_pass () =
    let t0 = Common.now () in
    let r = List.init n (fun k -> summary (run_campaign st c k)) in
    (r, Common.now () -. t0)
  in
  let plain, p1 = plain_pass () in
  let sp = Span.create () and reds = ref [] in
  let t1 = Common.now () in
  let traced =
    List.init n (fun k ->
        let t = st.targets.(st.order.(k mod n)) in
        let tp = Span.record sp "frontend" (fun () -> Projects.Project.frontend t.p) in
        if tp <> t.tp then failwith ("frontend of " ^ t.p.Projects.Project.pname ^ " is not deterministic");
        traced_campaign sp reds st c k)
  in
  let traced_s = Common.now () -. t1 in
  let plain2, p2 = plain_pass () in
  let mismatched =
    List.length
      (List.filter Fun.id
         (List.map2 (fun (a, b) t -> a <> summary t || b <> a) (List.combine plain plain2) traced))
  in
  let failed = mismatched + Common.sum recheck traced in
  let tot = Span.totals sp in
  let self name = (Span.find tot name).Span.self_s in
  let total name = (Span.find tot name).Span.total_s in
  let fuzzer_self = self "fuzzer" in
  let check_s = total "oracle.check" in
  let ostats =
    List.fold_left (fun a r -> Juliet.Eval.add_oracle_stats a (Compdiff.Oracle.stats r.Afl.oracle)) Common.oracle_zero traced
  in
  let engine =
    List.fold_left
      (fun a r -> Common.engine_add a (Engine.Session.stats (Compdiff.Oracle.session r.Afl.oracle)))
      Common.engine_zero traced
  in
  let red = Span.find tot "reduce" in
  let metrics =
    [
      Report.metric "minic.frontend_s" "s" (total "frontend");
      Report.metric "compile.s" "s" (total "compile");
      Report.metric "compile.calls" "count" (float_of_int (Span.find tot "compile").Span.count);
      Report.metric "oracle.cost_ratio" "x" (Common.ratio (fuzzer_self +. check_s) fuzzer_self);
      Report.metric "fuzzer.self_s" "s" fuzzer_self;
      Report.metric "fuzzer.execs" "count" (float_of_int (Common.sum execs traced));
      Report.metric "fuzzer.edges" "count"
        (float_of_int (Common.sum (fun r -> r.Afl.fuzz.Fuzz.Fuzzer.edges_covered) traced));
      Report.metric "fuzzer.queue_len" "count"
        (float_of_int (Common.sum (fun r -> List.length r.Afl.fuzz.Fuzz.Fuzzer.queue) traced));
      Report.metric "triage.add_s" "s" (total "triage.add");
      Report.metric "triage.signatures" "count" (float_of_int (Common.sum signatures traced));
      Report.metric "trace.overhead_s" "s" (traced_s -. ((p1 +. p2) /. 2.));
    ]
    @ Common.engine_metrics engine
    @ Common.oracle_metrics ~check_s ostats
    @ Common.reduce_metrics ~s:red.Span.total_s ~calls:red.Span.count ~recompile_s:0.
        ~recompiles:0 !reds
  in
  {
    Report.correct = failed = 0;
    attempted = n;
    failed;
    metrics;
    detail =
      [
        ("traced_campaigns", Report.Int n);
        ("untraced_s", Report.Arr [ Report.Num p1; Report.Num p2 ]);
        ("traced_s", Report.Num traced_s);
        ("results_identical", Report.Bool (mismatched = 0));
        ("divergent_inputs", Report.Int (Common.sum (fun r -> Compdiff.Triage.total_count r.Afl.diffs) traced));
        ( "overhead_row",
          Report.Obj
            [
              ("oracle.cost_ratio", Report.Num (Common.ratio (fuzzer_self +. check_s) fuzzer_self));
              ( "oracle.execs_per_check",
                Report.Num
                  (Common.ratio (float_of_int ostats.Compdiff.Oracle.vm_execs)
                     (float_of_int ostats.Compdiff.Oracle.checks)) );
              ("implementations", Report.Int (List.length Cdcompiler.Profiles.all));
              ("paper_cost_ratio", Report.Str "~10x for 10 implementations (Section 5)");
            ] );
      ];
  }
