(* Unit tests of the benchmark's own helpers: the percentile rule, the
   result line, span self time and the per-layer catalogue. *)

open Perfbench

let floats = Alcotest.(option (float 0.))
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rank () =
  (* nearest rank: p50 of 1..100 is 50, p90 is 90 *)
  Alcotest.check floats "p50" (Some 50.) (Report.percentile ~p:50. (ramp 100));
  Alcotest.check floats "p90" (Some 90.) (Report.percentile ~p:90. (ramp 100));
  (* input order does not matter *)
  let shuffled = Array.init 100 (fun i -> float_of_int ((i * 37 mod 100) + 1)) in
  Alcotest.check floats "p90 shuffled" (Some 90.) (Report.percentile ~p:90. shuffled)

let test_percentile_tail_rule () =
  (* p90 of 100 samples has exactly 10 beyond it: emitted *)
  Alcotest.check floats "10 beyond" (Some 90.) (Report.percentile ~p:90. (ramp 100));
  (* p90 of 99 samples has 9 beyond it: withheld *)
  Alcotest.check floats "9 beyond" None (Report.percentile ~p:90. (ramp 99));
  (* p99 needs 1000 samples *)
  Alcotest.check floats "p99 of 999" None (Report.percentile ~p:99. (ramp 999));
  Alcotest.check floats "p99 of 1000" (Some 990.) (Report.percentile ~p:99. (ramp 1000));
  Alcotest.check floats "empty" None (Report.percentile ~p:50. [||]);
  Alcotest.check floats "p50 of 19" None (Report.percentile ~p:50. (ramp 19))

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Report.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even" 2.5 (Report.median [| 4.; 1.; 2.; 3. |])

let test_latency_json () =
  Alcotest.(check string) "few samples keep n only" "{\"n\": 5, \"unit\": \"ms\"}"
    (Report.to_string (Report.latency_json (ramp 5)));
  Alcotest.(check string) "p50 and p90"
    "{\"n\": 100, \"unit\": \"ms\", \"p50\": 50.0, \"p90\": 90.0}"
    (Report.to_string (Report.latency_json (ramp 100)))

let test_figure () =
  Alcotest.(check string) "value, unit and n" "{\"value\": 0.25, \"unit\": \"share\", \"n\": 4}"
    (Report.to_string (Report.figure ~unit_:"share" ~n:4 0.25))

let test_json () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\n\\u0001\""
    (Report.to_string (Report.Str "a\"b\\c\n\001"));
  Alcotest.(check string) "integral float" "3.0" (Report.to_string (Report.Num 3.));
  Alcotest.(check string) "all digits" "0.10000000000000001" (Report.to_string (Report.Num 0.1));
  Alcotest.(check bool) "round trip" true
    (float_of_string (Report.to_string (Report.Num (1. /. 3.))) = 1. /. 3.);
  Alcotest.check_raises "nan refused"
    (Invalid_argument "Report.num_to_string: non-finite value") (fun () ->
      ignore (Report.to_string (Report.Num nan)))

let test_result_line () =
  let o =
    {
      Report.correct = true;
      attempted = 7;
      failed = 0;
      metrics = [ Report.metric "setup_s" "s" 0.5; Report.metric "throughput_per_s" "1/s" 2. ];
      detail = [ ("ignored", Report.Int 1) ];
    }
  in
  Alcotest.(check string) "exact keys"
    "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": \
     {\"value\": 0.5, \"unit\": \"s\"}, \"throughput_per_s\": {\"value\": 2.0, \"unit\": \
     \"1/s\"}}}"
    (Report.to_string (Report.result_json o))

let spin d =
  let t0 = Span.now () in
  while Span.now () -. t0 < d do () done

let test_span_self_time () =
  let sp = Span.create () in
  Span.record sp "outer" (fun () ->
      spin 0.002;
      Span.record sp "inner" (fun () -> spin 0.004);
      Span.record sp "inner" (fun () -> spin 0.004));
  let tot = Span.totals sp in
  let outer = Span.find tot "outer" and inner = Span.find tot "inner" in
  Alcotest.(check int) "inner count" 2 inner.Span.count;
  Alcotest.(check int) "outer count" 1 outer.Span.count;
  Alcotest.(check (float 1e-9)) "outer self = total - children"
    (outer.Span.total_s -. inner.Span.total_s) outer.Span.self_s;
  Alcotest.(check bool) "inner has no children" true (inner.Span.self_s = inner.Span.total_s);
  Alcotest.(check bool) "outer self covers its own work" true (outer.Span.self_s >= 0.002);
  Alcotest.(check int) "absent name" 0 (Span.find tot "absent").Span.count

let test_span_exception () =
  let sp = Span.create () in
  (try Span.record sp "boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.record sp "after" (fun () -> ());
  let tot = Span.totals sp in
  Alcotest.(check int) "failed span recorded" 1 (Span.find tot "boom").Span.count;
  Alcotest.(check bool) "next span is a root" true
    ((Span.find tot "after").Span.self_s = (Span.find tot "after").Span.total_s)

let test_layers_complete () =
  let ms, missing = Layers.complete [ Report.metric "compile.s" "s" 1.5 ] in
  Alcotest.(check int) "every layer metric" (List.length Layers.all) (List.length ms);
  Alcotest.(check (list string)) "canonical order" (List.map fst Layers.all)
    (List.map (fun (m : Report.metric) -> m.Report.name) ms);
  Alcotest.(check bool) "measured kept" true
    (List.exists (fun (m : Report.metric) -> m.Report.name = "compile.s" && m.Report.value = 1.5) ms);
  Alcotest.(check int) "the rest filled" (List.length Layers.all - 1) (List.length missing);
  Alcotest.check_raises "unknown name refused"
    (Invalid_argument "Layers.complete: unknown per-layer metric nope") (fun () ->
      ignore (Layers.complete [ Report.metric "nope" "s" 1. ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile_rank;
          Alcotest.test_case "ten beyond" `Quick test_percentile_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "latency json" `Quick test_latency_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "figure" `Quick test_figure;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_span_self_time;
          Alcotest.test_case "exception" `Quick test_span_exception;
        ] );
      ("layers", [ Alcotest.test_case "complete" `Quick test_layers_complete ]);
    ]
