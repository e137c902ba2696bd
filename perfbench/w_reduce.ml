(* reduce: [Projects.Campaign.reduce_representatives], the reporting
   step that dominates [compdiff projects], one representative at a
   time.  Set-up runs the projects campaigns (reduce off) for a fixed
   basket of targets through one shared engine session, as [compdiff
   projects] does; the seed drives the campaigns.  The basket is fixed
   because reduction cost differs by target several-fold: a seeded draw
   of targets would make the seed, not the program, set the figure. *)

open Perfbench
module Afl = Fuzz.Compdiff_afl

let basket = [ "libtiff"; "grok"; "exiv2"; "nm-new"; "php"; "pdftoppm" ]
let campaign_execs = 1_000
let max_checks = 160  (* reduce_representatives' default *)

type job = {
  p : Projects.Project.t;
  campaign : Afl.campaign;
  rep : Compdiff.Triage.diff_entry;
}

type state = { jobs : job array; fresh : unit -> job array }

(* The traced run reduces only the first target's representatives, so
   its campaigns cover just that target. *)
let campaigns (c : Common.ctx) : job array =
  let session = Engine.Session.create () in
  let basket = if c.trace then [ List.hd basket ] else basket in
  Array.of_list
    (List.concat_map
       (fun name ->
         let p = Option.get (Projects.Registry.by_name name) in
         let r =
           Projects.Campaign.run_project ~session ~max_execs:campaign_execs
             ~rng_seed:c.seed ~reduce:false p
         in
         let campaign = r.Projects.Campaign.campaign in
         List.map
           (fun rep -> { p; campaign; rep })
           (Compdiff.Triage.representatives campaign.Afl.diffs))
       basket)

let setup (c : Common.ctx) : state = { jobs = campaigns c; fresh = (fun () -> campaigns c) }

(* A triage store holding only this job's representative, so one call
   reduces exactly one divergence. *)
let single (j : job) =
  let d = Compdiff.Triage.create () in
  ignore
    (Compdiff.Triage.add d j.campaign.Afl.oracle ~input:j.rep.Compdiff.Triage.input
       j.rep.Compdiff.Triage.observations);
  d

let product (j : job) =
  let d = single j in
  match Projects.Campaign.reduce_representatives j.p { j.campaign with Afl.diffs = d } with
  | [ s ] -> (d, s)
  | _ -> failwith "reduce_representatives did not reduce its representative"

(* The reduced reproducer: it must diverge again under the naive
   oracle, keep the original divergence class, and be no larger. *)
let recheck (j : job) (d, (s : Compdiff.Reduce.stats)) =
  let o = j.campaign.Afl.oracle in
  match Compdiff.Triage.representatives d with
  | [ { Compdiff.Triage.reduced = Some r; _ } ] -> (
      match Compdiff.Oracle.check_naive o ~input:r.Compdiff.Triage.red_input with
      | Compdiff.Oracle.Agree _ -> false
      | Compdiff.Oracle.Diverge obs ->
          Compdiff.Reduce.class_of o ~input:r.Compdiff.Triage.red_input obs
          = Compdiff.Reduce.class_of o ~input:j.rep.Compdiff.Triage.input
              j.rep.Compdiff.Triage.observations
          && s.Compdiff.Reduce.input_after <= s.Compdiff.Reduce.input_before
          && s.Compdiff.Reduce.stmts_after <= s.Compdiff.Reduce.stmts_before)
  | _ -> false

let measure (c : Common.ctx) (st : state) : Report.outcome =
  let busy = ref 0. and i = ref 0 and failed = ref 0 and lat = ref [] in
  while !busy < c.seconds && !i < Array.length st.jobs do
    let j = st.jobs.(!i) in
    let t0 = Common.now () in
    let res = product j in
    let dt = Common.now () -. t0 in
    busy := !busy +. dt;
    lat := (dt *. 1000.) :: !lat;
    if not (recheck j res) then incr failed;
    incr i
  done;
  {
    Report.correct = !failed = 0;
    attempted = !i;
    failed = !failed;
    metrics = [ Report.metric "throughput_per_s" "1/s" (float_of_int !i /. !busy) ];
    detail =
      [
        ("op", Report.Str "one signature representative reduced (input + program)");
        ("window_s", Report.Num !busy);
        ("reductions", Report.Int !i);
        ("basket_representatives", Report.Int (Array.length st.jobs));
        ("latency_ms", Report.latency_json (Array.of_list (List.rev !lat)));
      ];
  }

(* [reduce_representatives] for one representative, rebuilt from its
   public calls, with the re-oracle factory timed. *)
let traced_one (sp : Span.t) reoracles (j : job) =
  let p = j.p in
  let session = Compdiff.Oracle.session j.campaign.Afl.oracle in
  let reoracle tp =
    let o =
      Span.record sp "compile" (fun () ->
          Compdiff.Oracle.create ~session ~profiles:(Projects.Project.profiles_for p)
            ~normalize:p.Projects.Project.normalize ~fuel:60_000 tp)
    in
    reoracles := o :: !reoracles;
    o
  in
  let d = single j in
  match
    Span.record sp "reduce" (fun () ->
        Compdiff.Reduce.reduce ~max_checks ~program:p.Projects.Project.program ~reoracle
          j.campaign.Afl.oracle ~input:j.rep.Compdiff.Triage.input
          j.rep.Compdiff.Triage.observations)
  with
  | Some r ->
      Compdiff.Triage.attach_reduced d ~input:j.rep.Compdiff.Triage.input
        {
          Compdiff.Triage.red_input = r.Compdiff.Reduce.red_input;
          red_observations = r.Compdiff.Reduce.red_observations;
          red_checks = r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks;
        };
      (d, r.Compdiff.Reduce.red_stats)
  | None -> failwith "traced reduction did not reduce its representative"

let traced_jobs = 2

let outcome_of (d, s) =
  ( s,
    List.map
      (fun (e : Compdiff.Triage.diff_entry) ->
        Option.map (fun (r : Compdiff.Triage.reduced) -> (r.red_input, r.red_checks)) e.reduced)
      (Compdiff.Triage.representatives d) )

(* Untraced, traced, untraced again — each on its own fresh campaigns,
   so no pass warms the caches of another. *)
let traced (_ : Common.ctx) (st : state) : Report.outcome =
  let pass f =
    let jobs = Array.sub (st.fresh ()) 0 traced_jobs in
    (* count the reductions' work only, not the set-up campaigns' *)
    Array.iter (fun j -> Compdiff.Oracle.reset_stats j.campaign.Afl.oracle) jobs;
    Engine.Session.reset_stats (Compdiff.Oracle.session jobs.(0).campaign.Afl.oracle);
    let t0 = Common.now () in
    let res = Array.map f jobs in
    (jobs, res, Common.now () -. t0)
  in
  (* a pass keeps its session alive until its figures are taken; the
     compaction returns that memory before the next pass builds its own *)
  let plain () =
    let _, res, dt = pass product in
    let outs = Array.map outcome_of res in
    Gc.compact ();
    (outs, dt)
  in
  let plain1, p1 = plain () in
  let sp = Span.create () and reoracles = ref [] in
  let traced, failed, ostats, engine, traced_s =
    let jobs, res, dt = pass (traced_one sp reoracles) in
    let rechecked = Array.mapi (fun i r -> recheck jobs.(i) r) res in
    let campaign_oracles =
      Array.fold_left
        (fun acc j -> if List.memq j.campaign.Afl.oracle acc then acc else j.campaign.Afl.oracle :: acc)
        [] jobs
    in
    let ostats =
      List.fold_left
        (fun a o -> Juliet.Eval.add_oracle_stats a (Compdiff.Oracle.stats o))
        Common.oracle_zero (campaign_oracles @ !reoracles)
    in
    let engine =
      Common.engine_add Common.engine_zero
        (Engine.Session.stats (Compdiff.Oracle.session jobs.(0).campaign.Afl.oracle))
    in
    ( Array.map outcome_of res,
      Array.fold_left (fun n ok -> if ok then n else n + 1) 0 rechecked,
      ostats,
      engine,
      dt )
  in
  reoracles := [];
  Gc.compact ();
  let plain2, p2 = plain () in
  let identical = plain1 = traced && plain2 = traced in
  let failed = failed + if identical then 0 else 1 in
  let tot = Span.totals sp in
  let total name = (Span.find tot name).Span.total_s in
  let count name = (Span.find tot name).Span.count in
  let metrics =
    [
      Report.metric "compile.s" "s" (total "compile");
      Report.metric "compile.calls" "count" (float_of_int (count "compile"));
      Report.metric "trace.overhead_s" "s" (traced_s -. ((p1 +. p2) /. 2.));
    ]
    @ Common.engine_metrics engine
    @ Common.oracle_metrics ?check_s:None ostats
    @ Common.reduce_metrics ~s:(total "reduce") ~calls:(count "reduce")
        ~recompile_s:(total "compile") ~recompiles:(count "compile")
        (Array.to_list (Array.map fst traced))
  in
  {
    Report.correct = failed = 0;
    attempted = traced_jobs;
    failed;
    metrics;
    detail =
      [
        ("traced_reductions", Report.Int traced_jobs);
        ("untraced_s", Report.Arr [ Report.Num p1; Report.Num p2 ]);
        ("traced_s", Report.Num traced_s);
        ("results_identical", Report.Bool identical);
      ];
  }
