(* Tests for the benchmark's own arithmetic: percentiles, means, the
   tail-percentile rule, reference scaling, throughput as updates over
   summed write time, and span self time. *)

open Bench_stats

let close = Alcotest.float 1e-12

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "p50 (nearest rank)" 50.0 (percentile xs 50.0);
  Alcotest.check close "p99" 99.0 (percentile xs 99.0);
  Alcotest.check close "p100 is the max" 100.0 (percentile xs 100.0);
  Alcotest.check close "median, even count" 50.5 (median xs);
  Alcotest.check close "median, odd count" 2.0 (median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "mean" 2.5 (mean [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "mean of nothing"
    (Invalid_argument "Bench_stats.mean: no samples") (fun () -> ignore (mean [||]))

let test_tail_rule () =
  let pct = Alcotest.(option (float 0.0)) in
  (* p99 of 1000 samples leaves exactly 10 beyond it *)
  Alcotest.(check int) "beyond p99 of 1000" 10 (beyond 1000 99.0);
  Alcotest.check pct "1000 samples support p99" (Some 99.0) (tail_percentile 1000);
  Alcotest.check pct "999 samples fall back to p95" (Some 95.0) (tail_percentile 999);
  Alcotest.check pct "10000 samples support p99.9" (Some 99.9) (tail_percentile 10_000);
  Alcotest.check pct "20 samples support only p50" (Some 50.0) (tail_percentile 20);
  Alcotest.check pct "19 samples support nothing" None (tail_percentile 19)

let test_throughput () =
  Alcotest.check close "updates over summed write time" 1000.0
    (throughput ~updates:300 [ 0.1; 0.05; 0.15 ]);
  Alcotest.check_raises "no write time"
    (Invalid_argument "Bench_stats.throughput: no write time") (fun () ->
      ignore (throughput ~updates:1 []))

let test_reference () =
  Alcotest.check close "a slow core's time, scaled down" 1.0
    (scale_to_reference ~nominal:0.4e-3 ~measured:0.6e-3 1.5);
  Alcotest.check close "a rate scales the other way" 300.0
    (scale_to_reference ~nominal:0.6e-3 ~measured:0.4e-3 200.0);
  Alcotest.check_raises "no reference time"
    (Invalid_argument "Bench_stats.scale_to_reference") (fun () ->
      ignore (scale_to_reference ~nominal:1.0 ~measured:0.0 1.0))

let span id parent start stop =
  { id; parent; name = Printf.sprintf "s%d" id; start; stop; minor_words = 0.0 }

(* root [0,10] with children [1,4] and [3,6] (overlapping: 5 covered) and a
   grandchild [2,3] inside the first child; a span outside the root. *)
let tree =
  [ span 0 None 0.0 10.0; span 1 (Some 0) 1.0 4.0; span 2 (Some 0) 3.0 6.0;
    span 3 (Some 1) 2.0 3.0; span 4 None 20.0 21.5 ]

let test_self_time () =
  let self = List.map (fun (s, t) -> (s.id, t)) (self_times tree) in
  Alcotest.check close "root minus the union of its children" 5.0 (List.assoc 0 self);
  Alcotest.check close "child minus grandchild" 2.0 (List.assoc 1 self);
  Alcotest.check close "leaf" 3.0 (List.assoc 2 self);
  Alcotest.check close "grandchild" 1.0 (List.assoc 3 self);
  Alcotest.check close "second root" 1.5 (List.assoc 4 self);
  let by_name = self_by_name (tree @ [ { (span 5 None 30.0 32.0) with name = "s4" } ]) in
  Alcotest.check close "summed per name" 3.5 (List.assoc "s4" by_name);
  Alcotest.(check (list string)) "first-appearance order"
    [ "s0"; "s1"; "s2"; "s3"; "s4" ] (List.map fst by_name)

let () =
  Alcotest.run "bench_stats"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "throughput" `Quick test_throughput;
          Alcotest.test_case "reference scaling" `Quick test_reference;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
