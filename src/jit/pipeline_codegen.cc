#include "jit/pipeline_codegen.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "format/format_driver.h"
#include "jit/codegen.h"
#include "jit/source_builder.h"

namespace raw {

using jit_internal::CTypeName;
using jit_internal::EmitCsvParseField;
using jit_internal::EmitCsvSkipFields;

namespace {

std::string_view CompareOpCpp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

DataType ExpectedLiteralType(DataType column_type) {
  switch (column_type) {
    case DataType::kInt32:
      return DataType::kInt32;
    case DataType::kInt64:
      return DataType::kInt64;
    case DataType::kFloat32:
      return DataType::kFloat32;
    default:
      return DataType::kFloat64;
  }
}

bool IsFusableType(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64 ||
         type == DataType::kFloat32 || type == DataType::kFloat64;
}

bool IsIntType(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64;
}

/// Derived layout shared by every format generator.
struct PipelineLayout {
  std::vector<int> file_rank;  // per input: scan output index, or -1 (dense)
  std::vector<const PipelinePredicate*> dense_preds;
  // Per input: predicates on that (file) input, in spec order.
  std::vector<std::vector<const PipelinePredicate*>> file_preds;
  std::set<int> dense_value_inputs;  // dense inputs read in the main loop
};

Status ValidateAndLayOut(const PipelineSpec& spec, PipelineLayout* out) {
  if (spec.inputs.empty()) {
    return Status::InvalidArgument("fused pipeline needs at least one input");
  }
  out->file_rank.assign(spec.inputs.size(), -1);
  out->file_preds.assign(spec.inputs.size(), {});
  int rank = 0;
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    const PipelineInput& in = spec.inputs[k];
    if (!IsFusableType(in.type)) {
      return Status::InvalidArgument(
          "fused pipelines handle numeric fixed-width columns only");
    }
    if (!in.dense) {
      if (rank >= static_cast<int>(spec.scan.outputs.size()) ||
          spec.scan.outputs[static_cast<size_t>(rank)].column != in.column ||
          spec.scan.outputs[static_cast<size_t>(rank)].type != in.type) {
        return Status::InvalidArgument(
            "fused pipeline scan outputs must equal the non-dense inputs");
      }
      out->file_rank[k] = rank++;
    }
  }
  if (rank == 0) {
    return Status::InvalidArgument(
        "fused pipeline needs at least one file-read input");
  }
  if (rank != static_cast<int>(spec.scan.outputs.size())) {
    return Status::InvalidArgument(
        "fused pipeline scan outputs must equal the non-dense inputs");
  }
  for (const PipelinePredicate& p : spec.predicates) {
    if (p.input < 0 || p.input >= static_cast<int>(spec.inputs.size())) {
      return Status::InvalidArgument("fused predicate input out of range");
    }
    const PipelineInput& in = spec.inputs[static_cast<size_t>(p.input)];
    if (p.literal.type() != ExpectedLiteralType(in.type)) {
      return Status::InvalidArgument(
          "fused predicate literal not canonicalized to the column type");
    }
    if (in.dense) {
      out->dense_preds.push_back(&p);
    } else {
      out->file_preds[static_cast<size_t>(p.input)].push_back(&p);
    }
  }
  auto note_value_input = [&](int k) {
    if (spec.inputs[static_cast<size_t>(k)].dense) {
      out->dense_value_inputs.insert(k);
    }
  };
  switch (spec.mode) {
    case PipelineOutputMode::kProject:
      if (spec.projections.empty()) {
        return Status::InvalidArgument("fused projection list is empty");
      }
      if (!spec.aggs.empty()) {
        return Status::InvalidArgument(
            "project-mode pipeline cannot carry aggregates");
      }
      for (int m : spec.projections) {
        if (m < 0 || m >= static_cast<int>(spec.inputs.size())) {
          return Status::InvalidArgument("fused projection out of range");
        }
        note_value_input(m);
      }
      break;
    case PipelineOutputMode::kAggregate:
      if (spec.aggs.empty()) {
        return Status::InvalidArgument("fused aggregate list is empty");
      }
      for (const PipelineAgg& a : spec.aggs) {
        if (a.kind == AggKind::kCount) {
          if (a.input >= 0) note_value_input(a.input);
          continue;
        }
        if (a.input < 0 ||
            a.input >= static_cast<int>(spec.inputs.size())) {
          return Status::InvalidArgument("fused aggregate input out of range");
        }
        note_value_input(a.input);
      }
      break;
  }
  return Status::OK();
}

void EmitPrelude(SourceBuilder* src, const PipelineSpec& spec,
                 std::string_view plugin) {
  src->Line("// Generated by RAW JIT pipeline-fusion compiler (" +
            std::string(plugin) + " plug-in).");
  src->Line("// spec: " + spec.CacheKey());
  src->Line("#include <stdint.h>");
  src->Line("#include <string.h>");
  src->Line("#include <charconv>");
  src->Line("#include \"jit/jit_abi.h\"");
  src->Blank();
  src->Line("template <typename T>");
  src->Open("static inline T raw_load_literal(const uint64_t* slot) {");
  src->Line("T v;");
  src->Line("memcpy(&v, slot, sizeof(v));");
  src->Line("return v;");
  src->Close();
  src->Blank();
}

/// The typed const local holding predicate `p`'s literal inside a kernel.
std::string LiteralLocal(const PipelineSpec& spec, const PipelinePredicate* p) {
  return "lit" + std::to_string(p - spec.predicates.data());
}

/// Loads the literal of each predicate on a dense (`dense`) or file-read
/// input from its ctx->pred_literals slot into a typed const local, once per
/// call and before any row loop, so the compares run against a
/// loop-invariant register.
void EmitLiteralBindings(SourceBuilder* src, const PipelineSpec& spec,
                         bool dense) {
  for (const PipelinePredicate& p : spec.predicates) {
    if (spec.inputs[static_cast<size_t>(p.input)].dense != dense) continue;
    std::string t(CTypeName(p.literal.type()));
    src->Line("const " + t + " " + LiteralLocal(spec, &p) +
              " = raw_load_literal<" + t + ">(ctx->pred_literals + " +
              std::to_string(&p - spec.predicates.data()) + ");");
  }
}

/// `if (!(value op literal)) continue;` for every predicate in `preds`.
void EmitPredicateTests(SourceBuilder* src, const PipelineSpec& spec,
                        const std::vector<const PipelinePredicate*>& preds,
                        const std::string& value) {
  for (const PipelinePredicate* p : preds) {
    src->Line("if (!(" + value + " " + std::string(CompareOpCpp(p->op)) +
              " " + LiteralLocal(spec, p) + ")) continue;");
  }
}

/// Emits the dense-predicate mask body once; callers wrap it in the scalar
/// and AVX2-target copies. `row_expr` maps (base, t) to the dense columns'
/// row index and may reference `ctx`.
void EmitMaskBody(SourceBuilder* src, const PipelineSpec& spec,
                  const PipelineLayout& lay, const std::string& row_expr) {
  src->Line("uint8_t* const m = ctx->sel_mask;");
  std::set<int> bound;
  for (const PipelinePredicate* p : lay.dense_preds) bound.insert(p->input);
  for (int k : bound) {
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line("const " + t + "* const d" + std::to_string(k) + " = (const " +
              t + "*)ctx->in_dense[" + std::to_string(k) + "];");
  }
  EmitLiteralBindings(src, spec, /*dense=*/true);
  src->Open("for (int64_t t = 0; t < n; ++t) {");
  src->Line("const int64_t r = " + row_expr + ";");
  src->Line("uint8_t keep = 1;");
  for (const PipelinePredicate* p : lay.dense_preds) {
    src->Line("keep &= (uint8_t)(d" + std::to_string(p->input) + "[r] " +
              std::string(CompareOpCpp(p->op)) + " " + LiteralLocal(spec, p) +
              ");");
  }
  src->Line("m[t] = keep;");
  src->Close();
}

/// Emits the scalar + AVX2 mask functions and the runtime dispatcher. The
/// two copies share one body with exact typed compares, so whichever the CPU
/// picks produces the same mask bit for bit; RAW_KERNELS (ctx->kernel_tier)
/// can force the scalar copy.
void EmitMaskFunctions(SourceBuilder* src, const PipelineSpec& spec,
                       const PipelineLayout& lay, const std::string& row_expr) {
  src->Open(
      "static void raw_eval_mask_scalar(const RawJitContext* ctx, int64_t "
      "base, int64_t n) {");
  EmitMaskBody(src, spec, lay, row_expr);
  src->Close();
  src->Blank();
  src->Line("#if defined(__x86_64__) || defined(__i386__)");
  src->Open(
      "__attribute__((target(\"avx2\"))) static void "
      "raw_eval_mask_avx2(const RawJitContext* ctx, int64_t base, int64_t n) "
      "{");
  EmitMaskBody(src, spec, lay, row_expr);
  src->Close();
  src->Line("#endif");
  src->Blank();
  src->Line(
      "typedef void (*RawMaskFn)(const RawJitContext*, int64_t, int64_t);");
  src->Open("static RawMaskFn raw_resolve_mask(const RawJitContext* ctx) {");
  src->Line("#if defined(__x86_64__) || defined(__i386__)");
  src->Line(
      "if (ctx->kernel_tier >= 3 && __builtin_cpu_supports(\"avx2\")) return "
      "&raw_eval_mask_avx2;");
  src->Line("#endif");
  src->Line("(void)ctx;");
  src->Line("return &raw_eval_mask_scalar;");
  src->Close();
  src->Blank();
}

/// Typed bindings for dense columns the main loop reads (aggregate inputs /
/// projections living in the shred cache).
void EmitDenseValueBindings(SourceBuilder* src, const PipelineSpec& spec,
                            const PipelineLayout& lay) {
  for (int k : lay.dense_value_inputs) {
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line("const " + t + "* const d" + std::to_string(k) + " = (const " +
              t + "*)ctx->in_dense[" + std::to_string(k) + "];");
  }
}

void EmitAggLoads(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    std::string i = std::to_string(s);
    src->Line("int64_t acc_cnt_" + i + " = ctx->agg_count[" + i + "];");
    src->Line("double acc_d_" + i + " = ctx->agg_dacc[" + i + "];");
    src->Line("int64_t acc_i_" + i + " = ctx->agg_iacc[" + i + "];");
    src->Line("int64_t acc_b_" + i + " = (int64_t)ctx->agg_init[" + i + "];");
  }
}

void EmitAggStores(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    std::string i = std::to_string(s);
    src->Line("ctx->agg_count[" + i + "] = acc_cnt_" + i + ";");
    src->Line("ctx->agg_dacc[" + i + "] = acc_d_" + i + ";");
    src->Line("ctx->agg_iacc[" + i + "] = acc_i_" + i + ";");
    src->Line("ctx->agg_init[" + i + "] = (uint8_t)acc_b_" + i + ";");
  }
}

/// Per-row aggregate update replicating AggAccumulator::UpdateIntT /
/// UpdateNumericT exactly (including the float-SUM double+int64 double
/// write), so fused partials merge into bit-identical finals.
void EmitAggUpdate(SourceBuilder* src, const PipelineSpec& spec, size_t s,
                   const std::string& val) {
  const PipelineAgg& agg = spec.aggs[s];
  std::string i = std::to_string(s);
  if (agg.kind == AggKind::kCount) {
    src->Line("++acc_cnt_" + i + ";");
    return;
  }
  DataType in_type = spec.inputs[static_cast<size_t>(agg.input)].type;
  src->Line("++acc_cnt_" + i + ";");
  if (IsIntType(in_type)) {
    switch (agg.kind) {
      case AggKind::kSum:
        src->Line("acc_i_" + i + " += (int64_t)(" + val + ");");
        break;
      case AggKind::kAvg:
        src->Line("acc_d_" + i + " += (double)(" + val + ");");
        break;
      case AggKind::kMax:
        src->Open("{");
        src->Line("const int64_t xv = (int64_t)(" + val + ");");
        src->Line("if (!acc_b_" + i + " || xv > acc_i_" + i + ") acc_i_" + i +
                  " = xv;");
        src->Line("acc_b_" + i + " = 1;");
        src->Close();
        break;
      case AggKind::kMin:
        src->Open("{");
        src->Line("const int64_t xv = (int64_t)(" + val + ");");
        src->Line("if (!acc_b_" + i + " || xv < acc_i_" + i + ") acc_i_" + i +
                  " = xv;");
        src->Line("acc_b_" + i + " = 1;");
        src->Close();
        break;
      case AggKind::kCount:
        break;
    }
    return;
  }
  switch (agg.kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("acc_d_" + i + " += xv;");
      src->Line("acc_i_" + i + " += (int64_t)xv;");
      src->Close();
      break;
    case AggKind::kMax:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("if (!acc_b_" + i + " || xv > acc_d_" + i + ") acc_d_" + i +
                " = xv;");
      src->Line("acc_b_" + i + " = 1;");
      src->Close();
      break;
    case AggKind::kMin:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("if (!acc_b_" + i + " || xv < acc_d_" + i + ") acc_d_" + i +
                " = xv;");
      src->Line("acc_b_" + i + " = 1;");
      src->Close();
      break;
    case AggKind::kCount:
      break;
  }
}

/// Typed bindings for the projection output buffers: po0..poM.
void EmitProjOutputBindings(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t m = 0; m < spec.projections.size(); ++m) {
    int k = spec.projections[m];
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line(t + "* const po" + std::to_string(m) + " = (" + t +
              "*)ctx->out_columns[" + std::to_string(m) + "];");
  }
}

/// The value expression for input `k` inside the row loop: a parsed local
/// for file inputs, a dense-column load for cached inputs.
std::string InputValueExpr(const PipelineSpec& spec, const PipelineLayout& lay,
                           int k, const std::string& rid_expr,
                           const std::string& block_index) {
  (void)lay;
  if (spec.inputs[static_cast<size_t>(k)].dense) {
    return "d" + std::to_string(k) + "[" + rid_expr + "]";
  }
  (void)block_index;
  return "v" + std::to_string(k);
}

/// Emits the aggregate or projection tail of one surviving row.
/// `rid_expr` is the global row id. Returns code via `src`.
void EmitRowOutputs(SourceBuilder* src, const PipelineSpec& spec,
                    const PipelineLayout& lay, const std::string& rid_expr,
                    const std::string& consumed_update) {
  if (spec.mode == PipelineOutputMode::kAggregate) {
    for (size_t s = 0; s < spec.aggs.size(); ++s) {
      const PipelineAgg& agg = spec.aggs[s];
      std::string val = agg.input >= 0
                            ? InputValueExpr(spec, lay, agg.input, rid_expr, "")
                            : "0";
      EmitAggUpdate(src, spec, s, val);
    }
    return;
  }
  for (size_t m = 0; m < spec.projections.size(); ++m) {
    std::string val =
        InputValueExpr(spec, lay, spec.projections[m], rid_expr, "");
    src->Line("po" + std::to_string(m) + "[produced] = " + val + ";");
  }
  src->Line("ctx->out_row_ids[produced] = " + rid_expr + ";");
  src->Line("++produced;");
  src->Open("if (produced == ctx->max_rows) {");
  src->Line(consumed_update);
  src->Line("ctx->rows_produced = produced;");
  src->Line("return produced;");
  src->Close();
}

StatusOr<std::string> GenerateCsvPipeline(const PipelineSpec& spec,
                                          const PipelineLayout& lay) {
  if (spec.scan.mode != ScanMode::kByPosition) {
    return Status::InvalidArgument(
        "fused CSV pipelines require a by-position (warm) scan");
  }
  for (const OutputField& f : spec.scan.outputs) {
    if (f.column < spec.scan.anchor_column) {
      return Status::InvalidArgument(
          "fused CSV pipeline cannot read left of the anchor column");
    }
  }
  // The parse/skip interleave walks the row left to right.
  for (size_t j = 1; j < spec.scan.outputs.size(); ++j) {
    if (spec.scan.outputs[j].column <= spec.scan.outputs[j - 1].column) {
      return Status::InvalidArgument(
          "fused CSV pipeline file inputs must be ascending by column");
    }
  }
  const bool agg = spec.mode == PipelineOutputMode::kAggregate;
  const bool masked = !lay.dense_preds.empty();
  SourceBuilder src;
  EmitPrelude(&src, spec, "csv");
  if (masked) {
    EmitMaskFunctions(&src, spec, lay, "ctx->in_row_ids[base + t]");
  }
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("int64_t i = ctx->input_cursor;");
  src.Line("const int64_t i0 = i;");
  src.Line("const int64_t n_in = ctx->num_inputs;");
  if (agg) {
    EmitAggLoads(&src, spec);
  } else {
    EmitProjOutputBindings(&src, spec);
    src.Line("int64_t produced = 0;");
  }
  EmitDenseValueBindings(&src, spec, lay);
  EmitLiteralBindings(&src, spec, /*dense=*/false);
  if (masked) src.Line("const RawMaskFn mask_fn = raw_resolve_mask(ctx);");
  src.Blank();
  if (agg) {
    src.Open("while (i < n_in) {");
  } else {
    src.Open("while (i < n_in && produced < ctx->max_rows) {");
  }
  src.Line("int64_t block = n_in - i;");
  src.Line("if (block > ctx->max_rows) block = ctx->max_rows;");
  if (masked) src.Line("mask_fn(ctx, i, block);");
  src.Open("for (int64_t t = 0; t < block; ++t) {");
  if (masked) src.Line("if (!ctx->sel_mask[t]) continue;");
  src.Line("const int64_t rid = ctx->in_row_ids[i + t];");
  src.Line("const char* p = data + ctx->in_positions[i + t];");
  int cursor_col = spec.scan.anchor_column;
  int remaining_file = static_cast<int>(spec.scan.outputs.size());
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (spec.inputs[k].dense) continue;
    const PipelineInput& in = spec.inputs[k];
    EmitCsvSkipFields(&src, in.column - cursor_col, spec.scan.delimiter);
    cursor_col = in.column;
    src.Line("// column " + std::to_string(in.column));
    src.Line(std::string(CTypeName(in.type)) + " v" + std::to_string(k) + ";");
    EmitCsvParseField(&src, in.type, "v" + std::to_string(k),
                      spec.scan.delimiter);
    EmitPredicateTests(&src, spec, lay.file_preds[k], "v" + std::to_string(k));
    if (--remaining_file > 0) {
      src.Line("++p;  // consume delimiter");
      cursor_col = in.column + 1;
    }
  }
  EmitRowOutputs(&src, spec, lay, "rid", "ctx->input_cursor = i + t + 1;");
  src.Close();  // for
  src.Line("i += block;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->input_cursor = i;");
  if (agg) {
    EmitAggStores(&src, spec);
    src.Line("ctx->rows_produced = 0;");
    src.Line("return i - i0;");
  } else {
    src.Line("ctx->rows_produced = produced;");
    src.Line("return produced;");
  }
  src.Close();
  return src.str();
}

StatusOr<std::string> GenerateBinPipeline(const PipelineSpec& spec,
                                          const PipelineLayout& lay) {
  if (spec.scan.mode != ScanMode::kSequential) {
    return Status::InvalidArgument(
        "fused binary pipelines require a sequential scan");
  }
  if (spec.scan.row_width <= 0 ||
      spec.scan.column_offsets.size() != spec.scan.outputs.size()) {
    return Status::InvalidArgument(
        "fused binary pipeline: row_width/column_offsets not set");
  }
  const bool agg = spec.mode == PipelineOutputMode::kAggregate;
  const bool masked = !lay.dense_preds.empty();
  const std::string rw = std::to_string(spec.scan.row_width);
  SourceBuilder src;
  EmitPrelude(&src, spec, "bin");
  if (masked) {
    EmitMaskFunctions(&src, spec, lay, "ctx->dense_row_base + base + t");
  }
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("int64_t row = ctx->row_cursor;");
  src.Line("const int64_t i0 = row;");
  src.Line("const int64_t total = ctx->total_rows;");
  if (agg) {
    EmitAggLoads(&src, spec);
  } else {
    EmitProjOutputBindings(&src, spec);
    src.Line("int64_t produced = 0;");
  }
  EmitDenseValueBindings(&src, spec, lay);
  EmitLiteralBindings(&src, spec, /*dense=*/false);
  if (masked) src.Line("const RawMaskFn mask_fn = raw_resolve_mask(ctx);");
  src.Blank();
  if (agg) {
    src.Open("while (row < total) {");
  } else {
    src.Open("while (row < total && produced < ctx->max_rows) {");
  }
  src.Line("int64_t block = total - row;");
  src.Line("if (block > ctx->max_rows) block = ctx->max_rows;");
  if (masked) src.Line("mask_fn(ctx, row, block);");
  src.Open("for (int64_t t = 0; t < block; ++t) {");
  if (masked) src.Line("if (!ctx->sel_mask[t]) continue;");
  src.Line("const int64_t rid = ctx->dense_row_base + row + t;");
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (spec.inputs[k].dense) continue;
    const PipelineInput& in = spec.inputs[k];
    int j = lay.file_rank[k];
    std::string off =
        std::to_string(spec.scan.column_offsets[static_cast<size_t>(j)]);
    src.Line("// column " + std::to_string(in.column));
    src.Line(std::string(CTypeName(in.type)) + " v" + std::to_string(k) + ";");
    src.Line("memcpy(&v" + std::to_string(k) +
             ", data + (uint64_t)(row + t) * " + rw + "ull + " + off +
             "ull, sizeof(v" + std::to_string(k) + "));");
    EmitPredicateTests(&src, spec, lay.file_preds[k], "v" + std::to_string(k));
  }
  EmitRowOutputs(&src, spec, lay, "rid", "ctx->row_cursor = row + t + 1;");
  src.Close();  // for
  src.Line("row += block;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->row_cursor = row;");
  if (agg) {
    EmitAggStores(&src, spec);
    src.Line("ctx->rows_produced = 0;");
    src.Line("return row - i0;");
  } else {
    src.Line("ctx->rows_produced = produced;");
    src.Line("return produced;");
  }
  src.Close();
  return src.str();
}

StatusOr<std::string> GenerateRefPipeline(const PipelineSpec& spec,
                                          const PipelineLayout& lay) {
  if (spec.scan.mode != ScanMode::kSequential) {
    return Status::InvalidArgument(
        "fused REF pipelines require a sequential scan");
  }
  if (spec.mode != PipelineOutputMode::kAggregate) {
    return Status::InvalidArgument(
        "fused REF pipelines support aggregation only");
  }
  const bool masked = !lay.dense_preds.empty();
  SourceBuilder src;
  EmitPrelude(&src, spec, "ref");
  if (masked) {
    EmitMaskFunctions(&src, spec, lay, "base + t");
  }
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("int64_t row = ctx->row_cursor;");
  src.Line("const int64_t i0 = row;");
  src.Line("const int64_t end = ctx->total_rows;");
  EmitAggLoads(&src, spec);
  EmitDenseValueBindings(&src, spec, lay);
  EmitLiteralBindings(&src, spec, /*dense=*/false);
  if (masked) src.Line("const RawMaskFn mask_fn = raw_resolve_mask(ctx);");
  src.Blank();
  src.Open("while (row < end) {");
  src.Line("int64_t take = end - row;");
  src.Line("if (take > ctx->max_rows) take = ctx->max_rows;");
  // One bulk API call per needed branch per block, exactly like the plain
  // REF scan kernel; filtering and aggregation then run over the decoded
  // scratch buffers without ever materializing a batch.
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (spec.inputs[k].dense) continue;
    int j = lay.file_rank[k];
    std::string branch = std::to_string(spec.inputs[k].column);
    src.Open("if (ctx->ref.read_range(ctx->ref.reader, " + branch +
             ", row, take, ctx->out_columns[" + std::to_string(j) + "])) {");
    src.Line("ctx->error = 1;");
    src.Line("ctx->error_row = row;");
    src.Line("return -1;");
    src.Close();
  }
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (spec.inputs[k].dense) continue;
    std::string t(CTypeName(spec.inputs[k].type));
    src.Line("const " + t + "* const b" + std::to_string(k) + " = (const " +
             t + "*)ctx->out_columns[" +
             std::to_string(lay.file_rank[k]) + "];");
  }
  if (masked) src.Line("mask_fn(ctx, row, take);");
  src.Open("for (int64_t t = 0; t < take; ++t) {");
  if (masked) src.Line("if (!ctx->sel_mask[t]) continue;");
  src.Line("const int64_t rid = row + t;");
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (spec.inputs[k].dense) continue;
    EmitPredicateTests(&src, spec, lay.file_preds[k],
                       "b" + std::to_string(k) + "[t]");
  }
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    const PipelineAgg& agg_spec = spec.aggs[s];
    std::string val = "0";
    if (agg_spec.input >= 0) {
      int k = agg_spec.input;
      val = spec.inputs[static_cast<size_t>(k)].dense
                ? "d" + std::to_string(k) + "[rid]"
                : "b" + std::to_string(k) + "[t]";
    }
    EmitAggUpdate(&src, spec, s, val);
  }
  src.Close();  // for
  src.Line("row += take;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->row_cursor = row;");
  EmitAggStores(&src, spec);
  src.Line("ctx->rows_produced = 0;");
  src.Line("return row - i0;");
  src.Close();
  return src.str();
}

}  // namespace

StatusOr<std::string> GenerateCsvPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  return GenerateCsvPipeline(spec, lay);
}

StatusOr<std::string> GenerateBinPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  return GenerateBinPipeline(spec, lay);
}

StatusOr<std::string> GenerateRefPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  return GenerateRefPipeline(spec, lay);
}

StatusOr<std::string> GeneratePipelineSource(const PipelineSpec& spec) {
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                       FormatRegistry::Global().Require(spec.scan.format));
  return driver->EmitJitPipelineSource(spec);
}

}  // namespace raw
