(* Self-tests of the benchmark: the tail-percentile rule, fail_frac on a
   planted wrong result, seeded input generation and the calibration's
   stretches. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-12))
let samples n = Array.init n (fun i -> float_of_int (i + 1))

let tail_rule =
  let pct n =
    let t = Measure.tail (samples n) in
    (t.Measure.pct, t.Measure.resolved)
  in
  let case n expected resolved =
    Alcotest.test_case (Printf.sprintf "%d samples" n) `Quick (fun () ->
        let p, r = pct n in
        check_float "percentile" expected p;
        Alcotest.(check bool) "resolved" resolved r)
  in
  [
    case 5 50.0 false;
    case 19 50.0 false;
    case 20 50.0 true;
    case 39 50.0 true;
    case 40 75.0 true;
    case 99 75.0 true;
    case 100 90.0 true;
    case 199 90.0 true;
    case 200 95.0 true;
    case 999 95.0 true;
    case 1000 95.0 true;
    case 10000 95.0 true;
    Alcotest.test_case "at least ten samples beyond, value by nearest rank" `Quick (fun () ->
        List.iter
          (fun n ->
            let t = Measure.tail (samples n) in
            Alcotest.(check bool) "ten beyond" true (t.Measure.beyond >= 10);
            check_float "value" (float_of_int (n - t.Measure.beyond)) t.Measure.value)
          [ 20; 57; 100; 150; 333; 1000; 4321; 20000 ]);
    Alcotest.test_case "median" `Quick (fun () ->
        check_float "odd" 3.0 (Measure.median [| 5.0; 1.0; 3.0 |]);
        check_float "even" 2.5 (Measure.median [| 4.0; 1.0; 3.0; 2.0 |]));
  ]

let fail_frac =
  [
    Alcotest.test_case "a planted wrong cost counts as one failure" `Quick (fun () ->
        let t = Measure.tally () in
        let reference = { Gate.cost = 42.5; naive = None } in
        List.iter
          (fun cost -> Measure.record t (Gate.check ~what:"q" reference cost))
          [ 42.5; 42.5; 43.5; 42.5 ];
        Alcotest.(check int) "attempted" 4 t.Measure.attempted;
        Alcotest.(check int) "failed" 1 t.Measure.failed;
        check_float "fail_frac" 0.25 (Measure.fail_frac t));
    Alcotest.test_case "no plan where the reference has one fails" `Quick (fun () ->
        let t = Measure.tally () in
        Measure.record t (Gate.check ~what:"q" { Gate.cost = 1.0; naive = None } infinity);
        Measure.record t (Gate.check ~what:"q" { Gate.cost = infinity; naive = None } infinity);
        Alcotest.(check int) "failed" 1 t.Measure.failed);
    Alcotest.test_case "the naive oracle is checked where it ran" `Quick (fun () ->
        let t = Measure.tally () in
        Measure.record t (Gate.check ~what:"q" { Gate.cost = 7.0; naive = Some 6.0 } 7.0);
        Measure.record t (Gate.check ~what:"q" { Gate.cost = 7.0; naive = Some 7.0 } 7.0);
        check_float "fail_frac" 0.5 (Measure.fail_frac t));
    Alcotest.test_case "rounding in the last places is not a failure" `Quick (fun () ->
        Alcotest.(check bool) "close" true (Measure.cost_agrees 57.737656250000001 57.73765625);
        Alcotest.(check bool) "far" false (Measure.cost_agrees 57.7377 57.6977));
    Alcotest.test_case "a wrong verdict fails" `Quick (fun () ->
        let v codes =
          { Rig.codes; elaborated = true; translated = true; lint_diags = 0;
            analysis_diags = 0; verify_cases = 0; verify_counterexamples = 0 }
        in
        let ok = function Ok () -> true | Error _ -> false in
        Alcotest.(check bool) "clean" true (ok (Gate.check_verdict ~what:"d" Inputs.Clean (v [])));
        Alcotest.(check bool) "not clean" false
          (ok (Gate.check_verdict ~what:"d" Inputs.Clean (v [ "P008" ])));
        Alcotest.(check bool) "expected code" true
          (ok (Gate.check_verdict ~what:"d" (Inputs.Code "P008") (v [ "P003"; "P008" ])));
        Alcotest.(check bool) "missing code" false
          (ok (Gate.check_verdict ~what:"d" (Inputs.Code "P301") (v [ "P008" ]))));
  ]

let rules = lazy (Rig.read_rules ~dir:"../../rules")

let generators =
  let files () =
    let r = Lazy.force rules in
    [ ("open_oodb", r.Rig.oodb); ("relational", r.Rig.relational) ]
  in
  let gens =
    [
      ("deep-e3e4", fun s -> Inputs.describe_deep (Inputs.deep s));
      ("sql-ordered", fun s -> Inputs.describe_sql (Inputs.sql s));
      ("serve-mix", fun s -> Inputs.describe_serve (Inputs.serve s));
      ("rulecheck", fun s -> Inputs.describe_rulecheck (Inputs.rulecheck s ~files:(files ())));
    ]
  in
  List.map
    (fun (name, gen) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "same seed, same inputs" (gen 7) (gen 7);
          Alcotest.(check bool) "another seed, other inputs" false (gen 7 = gen 8)))
    gens
  @ [
      Alcotest.test_case "every deep block has the same make-up" `Quick (fun () ->
          let d = Inputs.deep 3 in
          let blocks = Array.length d.Inputs.schedule / d.Inputs.block in
          Alcotest.(check int) "whole blocks" 0 (Array.length d.Inputs.schedule mod d.Inputs.block);
          for b = 0 to blocks - 1 do
            let heavy = ref 0 in
            for i = b * d.Inputs.block to ((b + 1) * d.Inputs.block) - 1 do
              if d.Inputs.schedule.(i).Inputs.joins = 3
                 && Prairie_workload.Queries.family d.Inputs.schedule.(i).Inputs.query
                    = Prairie_workload.Expressions.E4
              then incr heavy
            done;
            Alcotest.(check int) "one 3-join E4 per block" 1 !heavy
          done;
          Alcotest.(check (list string)) "the paper's E4 instances, Q7 and Q8 alternating"
            [ "Q7@101"; "Q8@101"; "Q7@202"; "Q8@202"; "Q7@303" ]
            (List.filteri (fun i _ -> i < 5)
               (List.map
                  (fun (q, s) -> Printf.sprintf "%s@%d" (Prairie_workload.Queries.name q) s)
                  Inputs.deep_heavy)));
      Alcotest.test_case "mutants differ from their source" `Quick (fun () ->
          Array.iter
            (fun (d : Inputs.doc) ->
              let source = List.assoc d.Inputs.file (files ()) in
              Alcotest.(check bool) d.Inputs.label (d.Inputs.expect = Inputs.Clean)
                (d.Inputs.text = source))
            (Inputs.rulecheck 5 ~files:(files ())));
    ]

let calibration =
  [
    Alcotest.test_case "every op gets the factor of its stretch" `Quick (fun () ->
        let c = Calib.create () in
        (* op time per round: the first round fills a stretch alone, the
           next two share one, the last is left open *)
        List.iteri (fun i dt -> Calib.after c ~next:(i + 1) dt) [ 1.0; 0.5; 0.5; 0.1 ];
        let f = Calib.factors c ~n:4 in
        Alcotest.(check int) "one per op" 4 (Array.length f);
        Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.0)) f;
        check_float "shared stretch" f.(1) f.(2);
        Alcotest.(check bool) "calibrated a tenth of the op time" true
          (c.Calib.cal_s >= Calib.share *. 2.1));
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("tail rule", tail_rule); ("fail_frac", fail_frac); ("seeded inputs", generators);
      ("calibration", calibration);
    ]
