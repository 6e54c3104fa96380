#include "custhrust/reduce.hpp"

#include <algorithm>
#include <complex>
#include <stdexcept>

namespace cusfft::custhrust {

namespace {

/// Tree-reduces vals[0..active) in place with `combine`; returns the root.
template <typename Combine>
double tree_reduce(cusim::Device& dev, cusim::DeviceBuffer<double>& vals,
                   std::size_t active, cusim::StreamId stream,
                   Combine combine) {
  using cusim::LaunchCfg;
  using cusim::ThreadCtx;
  while (active > 1) {
    const std::size_t half = (active + 1) / 2;
    dev.launch(LaunchCfg::for_elements("reduce_pass", half, 256, stream)
                   .cache(active),
               [&, active, half](ThreadCtx& t) {
                 const u64 i = t.global_id();
                 if (i >= half) return;
                 const std::size_t j = i + half;
                 if (j >= active) return;  // odd tail carries through
                 const double a = vals.load(t, i);
                 const double b = vals.load(t, j);
                 t.add_flops(1);
                 vals.store(t, i, combine(a, b));
               });
    active = half;
  }
  return vals.host()[0];
}

/// Writes map(in[i]) into out[0..in.size()); `out` must be at least as
/// long as `in`.
template <typename Map>
void map_to_double(cusim::Device& dev, const cusim::DeviceBuffer<cplx>& in,
                   cusim::DeviceBuffer<double>& out, cusim::StreamId stream,
                   Map map) {
  using cusim::LaunchCfg;
  using cusim::ThreadCtx;
  dev.launch(LaunchCfg::for_elements("reduce_map", in.size(), 256, stream)
                 .cache(in.size()),
             [&](ThreadCtx& t) {
               const u64 i = t.global_id();
               if (i >= in.size()) return;
               t.add_flops(3);
               out.store(t, i, map(in.load(t, i)));
             });
}

}  // namespace

double reduce_norm2(cusim::Device& dev, const cusim::DeviceBuffer<cplx>& data,
                    cusim::StreamId stream) {
  if (data.empty()) return 0.0;
  cusim::DeviceBuffer<double> scratch(data.size());
  return reduce_norm2(dev, data, scratch, stream);
}

double reduce_norm2(cusim::Device& dev, const cusim::DeviceBuffer<cplx>& data,
                    cusim::DeviceBuffer<double>& scratch,
                    cusim::StreamId stream) {
  if (data.empty()) return 0.0;
  if (scratch.size() < data.size())
    throw std::invalid_argument("reduce_norm2: scratch shorter than data");
  map_to_double(dev, data, scratch, stream,
                [](const cplx& v) { return std::norm(v); });
  return tree_reduce(dev, scratch, data.size(), stream,
                     [](double a, double b) { return a + b; });
}

double reduce_max_abs(cusim::Device& dev,
                      const cusim::DeviceBuffer<cplx>& data,
                      cusim::StreamId stream) {
  if (data.empty()) return 0.0;
  cusim::DeviceBuffer<double> vals(data.size());
  map_to_double(dev, data, vals, stream,
                [](const cplx& v) { return std::abs(v); });
  return tree_reduce(dev, vals, vals.size(), stream,
                     [](double a, double b) { return std::max(a, b); });
}

}  // namespace cusfft::custhrust
