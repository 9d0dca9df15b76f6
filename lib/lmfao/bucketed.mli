(** Threshold-bucket rewriting for decision-tree node batches: the 3k
    filtered variance triples per continuous feature collapse into one
    group-by triple over a derived bucket column plus O(k) suffix sums —
    LMFAO's restructuring that per-aggregate engines cannot apply. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

val bucket_attr : string -> string
(** Name of the derived bucket column for a feature. *)

val bucket_of : float list -> Value.t -> int
(** [bucket_of thresholds v] is the number of thresholds <= v. The
    thresholds must be ascending: partial application checks that once and
    raises [Invalid_argument] otherwise. *)

val augment : Database.t -> (string * float list) list -> Database.t
(** [augment db thresholds] adds the bucket column of every listed feature
    (thresholds ascending) to the relation that owns the feature. *)

val rewritten_batch :
  ?filter:Predicate.t -> Feature.t -> (string * float list) list -> Aggregates.Batch.t
(** The bucketed batch, every aggregate under [filter] (default none): the
    node totals, one grouped triple per bucketed continuous feature, one
    grouped triple per categorical feature. *)

val node_results :
  ?options:Engine.options ->
  ?filter:Predicate.t ->
  Database.t ->
  Feature.t ->
  thresholds:(string * float list) list ->
  (string * Spec.result) list
(** Answers the ids of [Aggregates.Batch.decision_node ~thresholds] with
    every aggregate under [filter], plus the node totals (suffix
    [Aggregates.Batch.total_suffix]), by evaluating {!rewritten_batch} and
    reading each threshold triple as a suffix sum. The database must
    already carry the bucket columns of {!augment} for [thresholds]. *)

val decision_node_results :
  ?options:Engine.options ->
  ?filter:Predicate.t ->
  Database.t ->
  Feature.t ->
  thresholds:(string * float list) list ->
  (string * Spec.result) list
(** {!node_results} over [augment db thresholds]. *)
