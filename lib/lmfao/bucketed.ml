(* Threshold-bucket rewriting for decision-tree node batches.

   The decision-node workload asks, per continuous feature x with candidate
   thresholds c_1 <= ... <= c_k, for the triples (SUM(y^2), SUM(y), SUM(1))
   under each filter x >= c_j — 3k filtered aggregates per feature whose
   partial aggregates do NOT coincide (each filter differs), so plain
   sharing cannot collapse them. LMFAO's answer is to rewrite them into ONE
   group-by triple per feature over the derived bucket column

       bucket_x(v) = |{ j : c_j <= v }|          (in 0..k)

   and recover every threshold answer as a suffix sum over buckets:
   x >= c_j  <=>  bucket_x >= j. The batch shrinks from 3*k per feature to
   3, the rest is O(k) postprocessing on the tiny grouped results. A tree
   node's path filter applies to every aggregate alike, so it carries over
   to the rewritten batch unchanged. *)

open Relational
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

let bucket_attr x = "__bucket_" ^ x
let bucket_suffix x = "|bucket " ^ x

let bucket_of thresholds =
  let cs = Array.of_list thresholds in
  for j = 1 to Array.length cs - 1 do
    if not (cs.(j - 1) <= cs.(j)) then
      invalid_arg "Bucketed.bucket_of: thresholds are not ascending"
  done;
  fun v ->
    (* binary search for the number of thresholds <= v *)
    let x = Value.to_float v in
    let lo = ref 0 and hi = ref (Array.length cs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cs.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo

let augment db thresholds =
  Derived.augment db
    (List.map (fun (x, cs) -> (x, bucket_attr x, bucket_of cs)) thresholds)

(* The rewritten batch: the node totals, per continuous feature a grouped
   triple over its bucket column, per categorical feature the usual grouped
   triple — all under [filter]. *)
let rewritten_batch ?(filter = Predicate.True) (f : Feature.t)
    (thresholds : (string * float list) list) =
  let response = Option.get f.response in
  let triple ~group_by suffix = Batch.variance_triple ~response ~filter ~group_by suffix in
  {
    Batch.name = "decision-node-bucketed";
    aggregates =
      triple ~group_by:[] Batch.total_suffix
      @ List.concat_map
          (fun x ->
            if List.mem_assoc x thresholds then
              triple ~group_by:[ bucket_attr x ] (bucket_suffix x)
            else [])
          f.continuous
      @ List.concat_map
          (fun k -> triple ~group_by:[ k ] (Batch.category_suffix k))
          f.categorical;
  }

(* [suffix_sums k grouped] reads a result grouped by one bucket column
   (buckets 0..k) into [a] with [a.(j)] the sum over buckets >= j: one pass
   over the groups, one backwards pass over the buckets. *)
let suffix_sums k (grouped : Spec.result) =
  let sums = Array.make (k + 2) 0.0 in
  List.iter
    (fun (assignment, v) ->
      match assignment with
      | [ (_, bucket) ] ->
          let b = Value.to_int bucket in
          sums.(b) <- sums.(b) +. v
      | _ -> invalid_arg "Bucketed.suffix_sums: not grouped by one bucket column")
    grouped;
  for j = k - 1 downto 0 do
    sums.(j) <- sums.(j) +. sums.(j + 1)
  done;
  sums

let node_results ?(options = Engine.default_options) ?filter (db : Database.t)
    (f : Feature.t) ~(thresholds : (string * float list) list) :
    (string * Spec.result) list =
  let keyed = (Engine.eval ~options db (rewritten_batch ?filter f thresholds)).keyed in
  let lookup id =
    match List.assoc_opt id keyed with
    | Some r -> r
    | None -> invalid_arg ("Bucketed: missing aggregate " ^ id)
  in
  let kinds = [ "sum_y2"; "sum_y"; "count" ] in
  let passed_through suffix =
    List.map (fun kind -> (kind ^ suffix, lookup (kind ^ suffix))) kinds
  in
  passed_through Batch.total_suffix
  @ List.concat_map
      (fun x ->
        match List.assoc_opt x thresholds with
        | None -> []
        | Some cs ->
            let k = List.length cs in
            List.concat_map
              (fun kind ->
                let sums = suffix_sums k (lookup (kind ^ bucket_suffix x)) in
                List.init k (fun j ->
                    (kind ^ Batch.threshold_suffix x j, [ ([], sums.(j + 1)) ])))
              kinds)
      f.continuous
  @ List.concat_map (fun k -> passed_through (Batch.category_suffix k)) f.categorical

let decision_node_results ?options ?filter db f ~thresholds =
  node_results ?options ?filter (augment db thresholds) f ~thresholds
