// Non-owning reference to a callable: the shape of C++26 std::function_ref.
//
// Two words, no allocation, one indirect call per invocation.  Meant for
// parameters only: the referenced callable must outlive every call made
// through the reference, which holds for a lambda passed straight into a
// call (the temporary lives until the full expression ends) and for any
// named object in an enclosing scope.
#ifndef PREFIXFILTER_SRC_UTIL_FUNCTION_REF_H_
#define PREFIXFILTER_SRC_UTIL_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace prefixfilter {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): converts like a function.
  FunctionRef(F&& f) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_UTIL_FUNCTION_REF_H_
