(* CART regression trees trained from aggregate batches (Section 2.2).

   Every split decision needs, per candidate (feature, condition), the
   response variance on each side — i.e. the triple SUM(y^2), SUM(y),
   SUM(1) under the node's path filter conjoined with the condition. These
   are exactly the filtered aggregates of the decision-node batch; one batch
   per tree node answers ALL candidate splits at once, and the engine never
   materialises the data matrix. Thresholds for continuous features come
   from the value distribution; categorical features use one-vs-rest splits
   read off a single GROUP BY triple. The LMFAO learner answers each node
   through the threshold-bucket rewrite of [Lmfao.Bucketed]. *)

open Relational
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split =
  | Threshold of string * float (* goes left when attr >= threshold *)
  | Category of string * Value.t (* goes left when attr = value *)

type tree =
  | Leaf of { prediction : float; count : float }
  | Node of { split : split; left : tree; right : tree; count : float }

type params = { max_depth : int; min_samples : float; min_gain : float }

let default_params = { max_depth = 4; min_samples = 10.0; min_gain = 1e-6 }

(* sum of squared errors around the mean, from the (count, sum, sum2) triple *)
let sse ~count ~sum ~sum2 =
  if count <= 0.0 then 0.0 else sum2 -. (sum *. sum /. count)

type evaluator = Predicate.t -> string -> Spec.result

let conj p q =
  match (p, q) with
  | Predicate.True, q -> q
  | p, Predicate.True -> p
  | p, q -> Predicate.And (p, q)

(* the per-node batch: the decision-node batch plus the total triple, every
   aggregate under the path filter *)
let node_specs ~(path : Predicate.t) (f : Feature.t)
    (thresholds : (string * float list) list) : Spec.t list =
  let response = Option.get f.response in
  Batch.variance_triple ~response ~filter:path ~group_by:[] Batch.total_suffix
  @ List.map
      (fun (spec : Spec.t) -> { spec with filter = conj path spec.filter })
      (Batch.decision_node ~thresholds f).aggregates

let scalar lookup id = Spec.scalar_result (lookup id)

let rec grow ~(params : params) ~(evaluate : evaluator) ~(path : Predicate.t)
    (f : Feature.t) (thresholds : (string * float list) list) depth : tree =
  let lookup = evaluate path in
  let triple suffix =
    ( scalar lookup ("count" ^ suffix),
      scalar lookup ("sum_y" ^ suffix),
      scalar lookup ("sum_y2" ^ suffix) )
  in
  let n, s, s2 = triple Batch.total_suffix in
  let prediction = if n > 0.0 then s /. n else 0.0 in
  let total_sse = sse ~count:n ~sum:s ~sum2:s2 in
  let leaf () = Leaf { prediction; count = n } in
  if depth >= params.max_depth || n < params.min_samples then leaf ()
  else begin
    let candidates = ref [] in
    let consider split (ln, ls, ls2) =
      let rn = n -. ln and rs = s -. ls and rs2 = s2 -. ls2 in
      if ln > 0.0 && rn > 0.0 then begin
        let gain =
          total_sse -. sse ~count:ln ~sum:ls ~sum2:ls2 -. sse ~count:rn ~sum:rs ~sum2:rs2
        in
        candidates := (gain, split) :: !candidates
      end
    in
    (* candidate splits: continuous thresholds... *)
    List.iter
      (fun x ->
        let ths = Option.value ~default:[] (List.assoc_opt x thresholds) in
        List.iteri
          (fun j c -> consider (Threshold (x, c)) (triple (Batch.threshold_suffix x j)))
          ths)
      f.continuous;
    (* ...and categorical one-vs-rest splits from the grouped triples *)
    List.iter
      (fun k ->
        let suffix = Batch.category_suffix k in
        let sums = lookup ("sum_y" ^ suffix) in
        let sums2 = lookup ("sum_y2" ^ suffix) in
        List.iter
          (fun (assignment, ln) ->
            match assignment with
            | [ (_, v) ] ->
                consider (Category (k, v))
                  (ln, Spec.lookup sums assignment, Spec.lookup sums2 assignment)
            | _ -> ())
          (lookup ("count" ^ suffix)))
      f.categorical;
    (* deterministic best: highest gain, ties by split description *)
    let describe = function
      | Threshold (x, c) -> Printf.sprintf "t|%s|%g" x c
      | Category (k, v) -> Printf.sprintf "c|%s|%s" k (Value.to_string v)
    in
    match
      List.sort
        (fun (g1, s1) (g2, s2) ->
          match compare g2 g1 with 0 -> compare (describe s1) (describe s2) | c -> c)
        !candidates
    with
    | (gain, split) :: _ when gain > params.min_gain ->
        let left_pred, right_pred =
          match split with
          | Threshold (x, c) ->
              (Predicate.Ge (x, Value.Float c), Predicate.Lt (x, Value.Float c))
          | Category (k, v) -> (Predicate.Eq (k, v), Predicate.Not (Predicate.Eq (k, v)))
        in
        let left =
          grow ~params ~evaluate ~path:(conj path left_pred) f thresholds (depth + 1)
        in
        let right =
          grow ~params ~evaluate ~path:(conj path right_pred) f thresholds (depth + 1)
        in
        Node { split; left; right; count = n }
    | _ -> leaf ()
  end

let thresholds_of_db (db : Database.t) (f : Feature.t) =
  List.map
    (fun x -> (x, Aggregates.Batch.thresholds_for db x f.thresholds_per_feature))
    f.continuous

let lookup_of results =
  let table = Hashtbl.of_seq (List.to_seq results) in
  fun id ->
    match Hashtbl.find_opt table id with
    | Some r -> r
    | None -> invalid_arg ("Decision_tree: missing aggregate " ^ id)

(* Structure-aware training: one bucketed LMFAO batch per tree node, over
   a database that gains its bucket columns once per call. *)
let train ?(params = default_params) ?(engine_options = Lmfao.Engine.default_options)
    (db : Database.t) (f : Feature.t) : tree =
  let thresholds = thresholds_of_db db f in
  let db = Lmfao.Bucketed.augment db thresholds in
  let evaluate path =
    lookup_of
      (Lmfao.Bucketed.node_results ~options:engine_options ~filter:path db f ~thresholds)
  in
  grow ~params ~evaluate ~path:Predicate.True f thresholds 0

(* Structure-agnostic training over a materialised data matrix: the
   unrewritten node batch evaluated by scans — the reference
   implementation. *)
let train_flat ?(params = default_params) (join : Relation.t) (f : Feature.t)
    ~(thresholds : (string * float list) list) : tree =
  let evaluate path =
    lookup_of
      (List.map
         (fun (spec : Spec.t) -> (spec.id, Spec.eval_flat join spec))
         (node_specs ~path f thresholds))
  in
  grow ~params ~evaluate ~path:Predicate.True f thresholds 0

let rec predict tree (get : string -> Value.t) =
  match tree with
  | Leaf { prediction; _ } -> prediction
  | Node { split; left; right; _ } ->
      let goes_left =
        match split with
        | Threshold (x, c) -> Value.to_float (get x) >= c
        | Category (k, v) -> Value.equal (get k) v
      in
      predict (if goes_left then left else right) get

let rmse_on tree (rel : Relation.t) ~response =
  let schema = Relation.schema rel in
  let n = Relation.cardinality rel in
  if n = 0 then 0.0
  else begin
    let col_of = Hashtbl.create 16 in
    List.iter
      (fun (a : Schema.attr) ->
        Hashtbl.replace col_of a.name
          (Relation.column rel (Schema.position schema a.name)))
      (Schema.attrs schema);
    let row = ref 0 in
    let get a = Column.get (Hashtbl.find col_of a) !row in
    let se = ref 0.0 in
    for i = 0 to n - 1 do
      row := i;
      let err = predict tree get -. Value.to_float (get response) in
      se := !se +. (err *. err)
    done;
    sqrt (!se /. float_of_int n)
  end

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + Stdlib.max (depth left) (depth right)

let rec size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + size left + size right

let rec pp ?(indent = 0) ppf tree =
  let pad = String.make (indent * 2) ' ' in
  match tree with
  | Leaf { prediction; count } ->
      Format.fprintf ppf "%spredict %.3f (n=%g)@\n" pad prediction count
  | Node { split; left; right; count } ->
      (match split with
      | Threshold (x, c) -> Format.fprintf ppf "%s%s >= %g? (n=%g)@\n" pad x c count
      | Category (k, v) ->
          Format.fprintf ppf "%s%s = %s? (n=%g)@\n" pad k (Value.to_string v) count);
      pp ~indent:(indent + 1) ppf left;
      pp ~indent:(indent + 1) ppf right
