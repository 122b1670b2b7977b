#include "jit/pipeline_spec.h"

#include <cstring>
#include <sstream>

namespace raw {

std::string_view PipelineOutputModeToString(PipelineOutputMode mode) {
  switch (mode) {
    case PipelineOutputMode::kProject:
      return "project";
    case PipelineOutputMode::kAggregate:
      return "aggregate";
  }
  return "?";
}

namespace {

template <typename T>
uint64_t SlotBits(T v) {
  static_assert(sizeof(T) <= sizeof(uint64_t), "literal wider than a slot");
  uint64_t slot = 0;
  std::memcpy(&slot, &v, sizeof(v));
  return slot;
}

}  // namespace

uint64_t PipelineLiteralSlot(const Datum& lit) {
  switch (lit.type()) {
    case DataType::kInt32:
      return SlotBits(lit.int32_value());
    case DataType::kInt64:
      return SlotBits(lit.int64_value());
    case DataType::kFloat32:
      return SlotBits(lit.float32_value());
    case DataType::kFloat64:
      return SlotBits(lit.float64_value());
    default:
      return 0;
  }
}

std::string PipelineSpec::CacheKey() const {
  std::ostringstream os;
  os << "pipe2|" << scan.CacheKey() << "|in=";
  for (const PipelineInput& in : inputs) {
    os << in.column << ':' << DataTypeToString(in.type)
       << (in.dense ? ":d" : ":f") << ',';
  }
  os << "|pred=";
  for (const PipelinePredicate& p : predicates) {
    os << p.input << ':' << CompareOpToString(p.op) << ':'
       << DataTypeToString(p.literal.type()) << ',';
  }
  os << "|mode=" << PipelineOutputModeToString(mode) << "|proj=";
  for (int p : projections) os << p << ',';
  os << "|agg=";
  for (const PipelineAgg& a : aggs) {
    os << AggKindToString(a.kind) << ':' << a.input << ',';
  }
  return os.str();
}

Schema FusedAggPartialSchema(const std::vector<PipelineAgg>& aggs) {
  Schema schema;
  for (size_t s = 0; s < aggs.size(); ++s) {
    std::string base = "agg" + std::to_string(s);
    schema.AddField(base + "_count", DataType::kInt64);
    schema.AddField(base + "_dacc", DataType::kFloat64);
    schema.AddField(base + "_iacc", DataType::kInt64);
    schema.AddField(base + "_init", DataType::kInt64);
  }
  return schema;
}

}  // namespace raw
