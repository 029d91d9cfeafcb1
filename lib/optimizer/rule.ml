open Soqm_vml
open Soqm_algebra
open Soqm_storage

type transformation = { t_name : string; t_apply_once : bool; t_body : body }

and body =
  | Rewrite of {
      lhs : Pattern.t;
      rhs : Pattern.t;
      bidirectional : bool;
      condition : Schema.t -> Pattern.bindings -> bool;
    }
  | Native of (Schema.t -> Restricted.t -> Restricted.t list)

let rewrite ?(bidirectional = true) ?(apply_once = false)
    ?(condition = fun _ _ -> true) t_name ~lhs ~rhs =
  {
    t_name;
    t_apply_once = apply_once;
    t_body = Rewrite { lhs; rhs; bidirectional; condition };
  }

let native ?(apply_once = false) t_name f =
  { t_name; t_apply_once = apply_once; t_body = Native f }

(* Deterministic seed for fresh references generated by a template: hash
   of the rule name and the matched term, so re-applying the same rule at
   the same site yields the identical result (deduplicated), while
   different sites get distinct names.  Alpha-canonicalization in the
   search erases the residual arbitrariness. *)
let seed_of rule_name term = Hashtbl.hash (rule_name, Restricted.to_string term) land 0xFFFFFF

let apply_direction schema name condition lhs rhs term =
  List.filter_map
    (fun b ->
      if not (condition schema b) then None
      else
        match
          Pattern.instantiate ~rule:name ~fresh_seed:(seed_of name term) b rhs
        with
        | t -> Some t
        | exception Pattern.Unbound _ -> None)
    (Pattern.matches schema lhs term)

let root_rewrites schema rule term =
  match rule.t_body with
  | Native f -> f schema term
  | Rewrite { lhs; rhs; bidirectional; condition } ->
    let forward = apply_direction schema rule.t_name condition lhs rhs term in
    if bidirectional then
      forward @ apply_direction schema rule.t_name condition rhs lhs term
    else forward

type opt_ctx = {
  schema : Schema.t;
  stats : Statistics.t;
  exec : Soqm_physical.Exec.ctx;
}

type implementation = {
  i_name : string;
  i_lhs : Pattern.t;
  i_build :
    opt_ctx ->
    Pattern.bindings ->
    (Restricted.t -> Soqm_physical.Plan.t) ->
    Soqm_physical.Plan.t option;
}

let implementation i_name ~lhs ~build = { i_name; i_lhs = lhs; i_build = build }
