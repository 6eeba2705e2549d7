#include "runtime/kernel.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

namespace mpcspan::runtime {

void BlockStore::create(std::uint64_t handle) {
  const auto [it, inserted] = slots_.try_emplace(handle);
  if (!inserted)
    throw std::invalid_argument("BlockStore: handle already exists");
  it->second.resize(numMachines_);
}

std::vector<Word>& BlockStore::block(std::uint64_t handle,
                                     std::size_t machine) {
  const auto it = slots_.find(handle);
  if (it == slots_.end())
    throw std::out_of_range("BlockStore: unknown block handle");
  return it->second.at(machine);
}

const std::vector<Word>& BlockStore::block(std::uint64_t handle,
                                           std::size_t machine) const {
  const auto it = slots_.find(handle);
  if (it == slots_.end())
    throw std::out_of_range("BlockStore: unknown block handle");
  return it->second.at(machine);
}

namespace {

struct GlobalRegistry {
  std::mutex mutex;
  std::unordered_map<std::string, KernelFactory> factories;
};

// Meyers singleton: safe to touch from other static initializers
// (GlobalKernelRegistrar instances) regardless of TU order.
GlobalRegistry& globalRegistry() {
  static GlobalRegistry* r = new GlobalRegistry();  // never destroyed
  return *r;
}

}  // namespace

bool registerGlobalKernel(std::string name, KernelFactory factory) {
  if (name.empty() || !factory)
    throw std::invalid_argument("registerGlobalKernel: empty name or factory");
  GlobalRegistry& reg = globalRegistry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.factories.emplace(std::move(name), std::move(factory)).second;
}

const KernelFactory* findGlobalKernel(const std::string& name) {
  GlobalRegistry& reg = globalRegistry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.factories.find(name);
  return it == reg.factories.end() ? nullptr : &it->second;
}

std::unique_ptr<StepKernel> makeGlobalKernel(const std::string& name) {
  const KernelFactory* factory = findGlobalKernel(name);
  if (!factory)
    throw std::invalid_argument("kernel '" + name +
                                "' is not globally registered in this process");
  std::unique_ptr<StepKernel> instance = (*factory)();
  if (!instance)
    throw std::runtime_error("kernel '" + name + "': factory returned null");
  return instance;
}

}  // namespace mpcspan::runtime
